// Restart-equality tests for the durability subsystem: a DetectionService
// with a data_dir is stopped (destroyed) and reconstructed over the same
// directory, and the recovered collection must publish exactly the
// labeling DetectSequential computes on the live points — with and
// without a sliding-window TTL, across explicit compactions and through a
// CONFIGURE change. After window turnovers only the live points are
// stored and recovered. Epochs never rewind across a restart, and a
// corrupt WAL frame or a broken log (a lost record, a non-extending
// expiry, a dims-0 record) must surface as a recovery error and leave the
// collection unserved rather than load corrupt points. The WAL a service
// writes is decoded record by record, and a recovered base too large for
// a SNAPSHOT reply is refused up front.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/dbscout.h"
#include "obs/metrics.h"
#include "service/handle.h"
#include "service/service.h"
#include "storage/snapshot.h"
#include "storage/store.h"
#include "storage/wal.h"
#include "testutil.h"

namespace dbscout::service {
namespace {

using core::PointKind;

Request IngestRequest(const std::string& collection, uint16_t dims,
                      std::vector<double> coords) {
  Request request;
  request.verb = Verb::kIngest;
  request.collection = collection;
  request.dims = dims;
  request.coords = std::move(coords);
  return request;
}

Request SnapshotRequest(const std::string& collection) {
  Request request;
  request.verb = Verb::kSnapshot;
  request.collection = collection;
  return request;
}

Request StatsRequest(const std::string& collection) {
  Request request;
  request.verb = Verb::kStats;
  request.collection = collection;
  return request;
}

Request ConfigureRequest(const std::string& collection, double ttl) {
  Request request;
  request.verb = Verb::kConfigure;
  request.collection = collection;
  request.ttl_seconds = ttl;
  return request;
}

/// A fresh durability root under the test temp dir.
std::string FreshDataDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/durability_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

core::Params TestParams() {
  core::Params params;
  params.eps = 1.0;
  params.min_pts = 4;
  return params;
}

/// Asserts the collection's published snapshot equals DetectSequential on
/// its live points, and that STATS agrees on the live count.
void ExpectMatchesOracle(ServiceHandle* handle, const std::string& name,
                         const PointSet& ingested,
                         const core::Params& params, const char* where) {
  auto snapshot = handle->Call(SnapshotRequest(name));
  ASSERT_TRUE(snapshot.ok()) << where;
  ASSERT_TRUE(snapshot->status.ok()) << where << ": " << snapshot->status;
  const SnapshotAnswer& snap = snapshot->snapshot;
  ASSERT_EQ(snap.epoch, ingested.size()) << where;

  PointSet live(ingested.dims());
  for (size_t i = 0; i < ingested.size(); ++i) {
    if (snap.alive[i] != 0) {
      live.Add(ingested[i]);
    }
  }
  auto oracle = core::DetectSequential(live, params);
  ASSERT_TRUE(oracle.ok()) << where;
  size_t j = 0;
  for (size_t i = 0; i < ingested.size(); ++i) {
    if (snap.alive[i] == 0) {
      continue;
    }
    ASSERT_EQ(snap.kinds[i], oracle->kinds[j])
        << where << ": live point " << i << " (oracle index " << j << ")";
    ++j;
  }
  ASSERT_EQ(j, live.size()) << where;

  auto stats = handle->Call(StatsRequest(name));
  ASSERT_TRUE(stats.ok() && stats->status.ok()) << where;
  EXPECT_EQ(stats->stats.live_points, live.size()) << where;
}

/// One durable service run: build → hand control to `body` → destroy (the
/// destructor stops the apply loop and closes every store, syncing the
/// WAL tail).
struct DurableRun {
  explicit DurableRun(ServiceOptions options)
      : service(std::move(options)), handle(&service) {}
  DetectionService service;
  ServiceHandle handle;
};

ServiceOptions DurableOptions(const std::string& data_dir,
                              obs::Registry* registry,
                              std::atomic<double>* clock) {
  ServiceOptions options;
  options.params = TestParams();
  options.data_dir = data_dir;
  options.registry = registry;
  if (clock != nullptr) {
    options.clock = [clock] { return clock->load(); };
  }
  return options;
}

/// Ingests `batch` through the handle, appending to the oracle's record.
void Ingest(ServiceHandle* handle, PointSet* ingested,
            const PointSet& batch) {
  std::vector<double> coords;
  for (size_t i = 0; i < batch.size(); ++i) {
    for (double v : batch[i]) {
      coords.push_back(v);
    }
    ingested->Add(batch[i]);
  }
  auto response = handle->Call(
      IngestRequest("c", static_cast<uint16_t>(batch.dims()),
                    std::move(coords)));
  ASSERT_TRUE(response.ok() && response->status.ok())
      << (response.ok() ? response->status : response.status());
  ASSERT_EQ(response->epoch, ingested->size());
}

TEST(DurabilityTest, RestartPreservesOutlierSetAndEpoch) {
  const std::string dir = FreshDataDir("restart");
  const size_t dims = 2;
  Rng rng(0x5eed1);
  PointSet ingested(dims);
  uint64_t epoch_before = 0;

  {
    obs::Registry registry;
    DurableRun run(DurableOptions(dir, &registry, nullptr));
    ASSERT_TRUE(run.service.recovery_status().ok());
    Ingest(&run.handle, &ingested,
           testing::UniformPoints(&rng, 100, dims, 0.0, 10.0));
    Ingest(&run.handle, &ingested,
           testing::ClusteredPoints(&rng, 60, dims, 3, 0.2));
    Ingest(&run.handle, &ingested,
           testing::UniformPoints(&rng, 30, dims, -1.0, 11.0));
    ExpectMatchesOracle(&run.handle, "c", ingested, TestParams(),
                        "before restart");
    epoch_before = ingested.size();
  }

  {
    obs::Registry registry;
    DurableRun run(DurableOptions(dir, &registry, nullptr));
    ASSERT_TRUE(run.service.recovery_status().ok())
        << run.service.recovery_status();
    auto stats = run.handle.Call(StatsRequest("c"));
    ASSERT_TRUE(stats.ok() && stats->status.ok());
    // The epoch never rewinds across a restart: every acknowledged id is
    // still assigned.
    EXPECT_EQ(stats->stats.epoch, epoch_before);
    ExpectMatchesOracle(&run.handle, "c", ingested, TestParams(),
                        "after restart");

    // The recovered collection keeps accepting ingest, with ids continuing
    // where the previous process stopped.
    Ingest(&run.handle, &ingested,
           testing::UniformPoints(&rng, 40, dims, 0.0, 10.0));
    EXPECT_GT(ingested.size(), epoch_before);
    ExpectMatchesOracle(&run.handle, "c", ingested, TestParams(),
                        "after post-restart ingest");
  }

  // A third incarnation sees the union of both previous runs.
  {
    obs::Registry registry;
    DurableRun run(DurableOptions(dir, &registry, nullptr));
    ASSERT_TRUE(run.service.recovery_status().ok());
    ExpectMatchesOracle(&run.handle, "c", ingested, TestParams(),
                        "after second restart");
  }
}

TEST(DurabilityTest, RestartPreservesSlidingWindow) {
  const std::string dir = FreshDataDir("ttl");
  const size_t dims = 2;
  Rng rng(0x7778);
  PointSet ingested(dims);
  std::atomic<double> now{0.0};
  uint64_t window_before = 0;

  {
    obs::Registry registry;
    ServiceOptions options = DurableOptions(dir, &registry, &now);
    options.ttl_seconds = 5.0;
    DurableRun run(options);
    ASSERT_TRUE(run.service.recovery_status().ok());
    Ingest(&run.handle, &ingested,
           testing::UniformPoints(&rng, 80, dims, 0.0, 10.0));
    now.store(2.0);
    Ingest(&run.handle, &ingested,
           testing::ClusteredPoints(&rng, 50, dims, 2, 0.2));
    // t=6: the first batch (stamped 0, TTL 5) ages out; the second stays.
    now.store(6.0);
    run.service.SweepExpiredNow();
    ExpectMatchesOracle(&run.handle, "c", ingested, TestParams(),
                        "after sweep");
    auto stats = run.handle.Call(StatsRequest("c"));
    ASSERT_TRUE(stats.ok() && stats->status.ok());
    window_before = stats->stats.window_begin;
    ASSERT_EQ(window_before, 80u);
  }

  {
    obs::Registry registry;
    ServiceOptions options = DurableOptions(dir, &registry, &now);
    options.ttl_seconds = 5.0;
    DurableRun run(options);
    ASSERT_TRUE(run.service.recovery_status().ok())
        << run.service.recovery_status();
    auto stats = run.handle.Call(StatsRequest("c"));
    ASSERT_TRUE(stats.ok() && stats->status.ok());
    // The expired prefix stays expired; the window never rewinds either.
    EXPECT_EQ(stats->stats.window_begin, window_before);
    EXPECT_DOUBLE_EQ(stats->stats.ttl_seconds, 5.0);
    ExpectMatchesOracle(&run.handle, "c", ingested, TestParams(),
                        "after TTL restart");

    // Recovered points are re-stamped at recovery time (they live one more
    // full TTL from the restart, never less): advancing past now + TTL
    // drains the window completely.
    now.store(now.load() + 6.0);
    run.service.SweepExpiredNow();
    auto drained = run.handle.Call(StatsRequest("c"));
    ASSERT_TRUE(drained.ok() && drained->status.ok());
    EXPECT_EQ(drained->stats.live_points, 0u);
    ExpectMatchesOracle(&run.handle, "c", ingested, TestParams(),
                        "after drain");
  }
}

TEST(DurabilityTest, CompactionThenRestartMatchesOracle) {
  const std::string dir = FreshDataDir("compact");
  const size_t dims = 2;
  Rng rng(0xc0df);
  PointSet ingested(dims);

  {
    obs::Registry registry;
    DurableRun run(DurableOptions(dir, &registry, nullptr));
    ASSERT_TRUE(run.service.recovery_status().ok());
    Ingest(&run.handle, &ingested,
           testing::UniformPoints(&rng, 90, dims, 0.0, 10.0));
    // Fold the log so far into a snapshot; later records land in a fresh
    // WAL suffix, so recovery exercises snapshot + suffix together.
    ASSERT_TRUE(run.service.CompactNow().ok());
    Ingest(&run.handle, &ingested,
           testing::ClusteredPoints(&rng, 45, dims, 3, 0.15));
    ASSERT_TRUE(run.service.CompactNow().ok());
    Ingest(&run.handle, &ingested,
           testing::UniformPoints(&rng, 25, dims, -1.0, 11.0));
  }

  {
    obs::Registry registry;
    DurableRun run(DurableOptions(dir, &registry, nullptr));
    ASSERT_TRUE(run.service.recovery_status().ok())
        << run.service.recovery_status();
    ExpectMatchesOracle(&run.handle, "c", ingested, TestParams(),
                        "after compacted restart");
  }
}

Request QueryByIdRequest(const std::string& collection, uint32_t id) {
  Request request;
  request.verb = Verb::kQuery;
  request.collection = collection;
  request.query_by_id = true;
  request.query_id = id;
  return request;
}

/// The newest snapshot file in `data_dir`'s collection "c".
std::string NewestSnapshot(const std::string& data_dir) {
  std::string newest;
  for (const auto& entry :
       std::filesystem::directory_iterator(data_dir + "/c")) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) == 0 &&
        (newest.empty() || entry.path().string() > newest)) {
      newest = entry.path().string();
    }
  }
  return newest;
}

// A by-id QUERY of `id` answers NotFound when `expired`, else a label.
void ExpectQueryExpired(ServiceHandle* handle, uint64_t id, bool expired,
                        const char* where) {
  auto answer =
      handle->Call(QueryByIdRequest("c", static_cast<uint32_t>(id)));
  ASSERT_TRUE(answer.ok()) << where;
  if (expired) {
    EXPECT_EQ(answer->status.code(), StatusCode::kNotFound)
        << where << ": id " << id << ": " << answer->status;
  } else {
    EXPECT_TRUE(answer->status.ok())
        << where << ": id " << id << ": " << answer->status;
  }
}

// Twenty window turnovers on an injected clock: each turnover ingests at
// one of two alternating sites and expires the whole previous window.
// Compaction then writes only the live rows, recovery re-ingests only
// them (at their original global ids), and one rule holds before and
// after the restart alike: a by-id QUERY below window_begin answers
// NotFound, and SNAPSHOT reads every such id as a dead outlier, so its
// arrays over [0, epoch) are identical across the restart.
TEST(DurabilityTest, WindowTurnoversStoreAndRecoverOnlyLivePoints) {
  const std::string dir = FreshDataDir("turnover");
  const size_t dims = 2;
  Rng rng(0x7e58);
  PointSet ingested(dims);
  std::atomic<double> now{0.0};
  uint64_t live = 0;
  uint64_t window_begin = 0;
  SnapshotAnswer before;

  {
    obs::Registry registry;
    ServiceOptions options = DurableOptions(dir, &registry, &now);
    options.ttl_seconds = 5.0;
    DurableRun run(options);
    ASSERT_TRUE(run.service.recovery_status().ok());
    for (int turnover = 0; turnover < 20; ++turnover) {
      // The previous window (stamped 10 s ago, TTL 5) expires in the
      // first ingest pass of this turnover.
      now.store(10.0 * turnover);
      const double site = turnover % 2 == 0 ? 0.0 : 30.0;
      for (int half = 0; half < 2; ++half) {
        PointSet batch = testing::ClusteredPoints(&rng, 30, dims, 2, 0.2);
        PointSet shifted(dims);
        for (size_t i = 0; i < batch.size(); ++i) {
          shifted.Add(std::vector<double>{batch[i][0] + site, batch[i][1]});
        }
        Ingest(&run.handle, &ingested, shifted);  // lint:allow(discarded-status) void test helper
      }
    }
    ExpectMatchesOracle(&run.handle, "c", ingested, TestParams(),
                        "after 20 turnovers");
    auto stats = run.handle.Call(StatsRequest("c"));
    ASSERT_TRUE(stats.ok() && stats->status.ok());
    live = stats->stats.live_points;
    window_begin = stats->stats.window_begin;
    ASSERT_EQ(live, 60u);
    ASSERT_EQ(window_begin, ingested.size() - live);
    ExpectQueryExpired(&run.handle, 0, true, "before restart");
    ExpectQueryExpired(&run.handle, window_begin - 1, true, "before restart");
    ExpectQueryExpired(&run.handle, window_begin, false, "before restart");
    auto snapshot = run.handle.Call(SnapshotRequest("c"));
    ASSERT_TRUE(snapshot.ok() && snapshot->status.ok());
    before = snapshot->snapshot;
    ASSERT_EQ(before.kinds.size(), ingested.size());
    ASSERT_TRUE(run.service.CompactNow().ok());
  }

  // The compacted snapshot holds exactly the live rows.
  const std::string newest = NewestSnapshot(dir);
  ASSERT_FALSE(newest.empty());
  auto state = storage::ReadSnapshotFile(newest);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(state->window_begin, window_begin);
  EXPECT_EQ(state->epoch, ingested.size());
  EXPECT_EQ(state->coords.size(), live * dims);
  EXPECT_EQ(std::filesystem::file_size(newest),
            16u + 34u + live * dims * sizeof(double) + 4u);

  {
    obs::Registry registry;
    ServiceOptions options = DurableOptions(dir, &registry, &now);
    options.ttl_seconds = 5.0;
    DurableRun run(options);
    ASSERT_TRUE(run.service.recovery_status().ok())
        << run.service.recovery_status();
    EXPECT_EQ(registry.GetCounter("dbscout_replay_points_total", "")->Value(),
              live);
    ExpectMatchesOracle(&run.handle, "c", ingested, TestParams(),
                        "after turnover restart");
    ExpectQueryExpired(&run.handle, 0, true, "after restart");
    ExpectQueryExpired(&run.handle, window_begin - 1, true, "after restart");
    ExpectQueryExpired(&run.handle, window_begin, false, "after restart");
    auto after = run.handle.Call(SnapshotRequest("c"));
    ASSERT_TRUE(after.ok() && after->status.ok());
    EXPECT_EQ(after->snapshot.epoch, before.epoch);
    EXPECT_EQ(after->snapshot.kinds, before.kinds);
    EXPECT_EQ(after->snapshot.alive, before.alive);
  }
}

TEST(DurabilityTest, ConfigurePersistsAcrossRestart) {
  const std::string dir = FreshDataDir("configure");
  const size_t dims = 2;
  Rng rng(0xbeef);
  PointSet ingested(dims);

  {
    obs::Registry registry;
    DurableRun run(DurableOptions(dir, &registry, nullptr));
    Ingest(&run.handle, &ingested,
           testing::UniformPoints(&rng, 40, dims, 0.0, 8.0));
    auto configured = run.handle.Call(ConfigureRequest("c", 3.5));
    ASSERT_TRUE(configured.ok() && configured->status.ok());
    EXPECT_DOUBLE_EQ(configured->configure.ttl_seconds, 3.5);
  }

  obs::Registry registry;
  DurableRun run(DurableOptions(dir, &registry, nullptr));
  ASSERT_TRUE(run.service.recovery_status().ok());
  auto stats = run.handle.Call(StatsRequest("c"));
  ASSERT_TRUE(stats.ok() && stats->status.ok());
  EXPECT_DOUBLE_EQ(stats->stats.ttl_seconds, 3.5);
}

TEST(DurabilityTest, AutoCompactionUnderTinySegmentsStaysExact) {
  const std::string dir = FreshDataDir("autocompact");
  const size_t dims = 2;
  Rng rng(0xaaaa);
  PointSet ingested(dims);

  {
    obs::Registry registry;
    ServiceOptions options = DurableOptions(dir, &registry, nullptr);
    // Every commit overflows a 512-byte segment, so compaction runs
    // constantly and the restart below recovers almost entirely from
    // snapshots.
    options.snapshot_interval_bytes = 512;
    DurableRun run(options);
    for (int round = 0; round < 6; ++round) {
      Ingest(&run.handle, &ingested,
             testing::UniformPoints(&rng, 20, dims, 0.0, 10.0));
    }
    ExpectMatchesOracle(&run.handle, "c", ingested, TestParams(),
                        "before restart");
  }

  obs::Registry registry;
  DurableRun run(DurableOptions(dir, &registry, nullptr));
  ASSERT_TRUE(run.service.recovery_status().ok())
      << run.service.recovery_status();
  ExpectMatchesOracle(&run.handle, "c", ingested, TestParams(),
                      "after restart");
}

TEST(DurabilityTest, CorruptWalFrameFailsRecovery) {
  const std::string dir = FreshDataDir("corrupt");
  const size_t dims = 2;
  Rng rng(0x3333);
  PointSet ingested(dims);

  {
    obs::Registry registry;
    DurableRun run(DurableOptions(dir, &registry, nullptr));
    Ingest(&run.handle, &ingested,
           testing::UniformPoints(&rng, 50, dims, 0.0, 10.0));
  }

  // Flip one payload byte of the first frame (the CREATE record): a
  // complete frame with a bad CRC is a hard error — recovery must refuse
  // the directory rather than load corrupt points.
  const std::string wal = dir + "/c/wal-000001.log";
  ASSERT_TRUE(std::filesystem::exists(wal));
  {
    std::fstream file(wal, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(storage::kWalHeaderBytes) + 8);
    char byte = 0;
    file.get(byte);
    file.seekp(static_cast<std::streamoff>(storage::kWalHeaderBytes) + 8);
    file.put(static_cast<char>(byte ^ 0x01));
  }

  obs::Registry registry;
  DurableRun run(DurableOptions(dir, &registry, nullptr));
  EXPECT_FALSE(run.service.recovery_status().ok());
}

/// Writes `records` as collection "c"'s WAL under `data_dir`, frame by
/// frame, as if a service had logged them.
void WriteLog(const std::string& data_dir,
              const std::vector<storage::WalRecord>& records) {
  obs::Registry registry;
  storage::StoreOptions options;
  options.registry = &registry;
  options.collection = "c";
  storage::RecoveredCollection recovered;
  auto store = storage::CollectionStore::Open(
      data_dir + "/" + storage::EncodeCollectionDirName("c"), options,
      &recovered);
  ASSERT_TRUE(store.ok()) << store.status();
  for (const storage::WalRecord& record : records) {
    ASSERT_TRUE((*store)->LogRecord(record).ok());
  }
  ASSERT_TRUE((*store)->Close().ok());
}

storage::WalRecord CreateRecord(uint16_t dims) {
  storage::WalRecord record;
  record.type = storage::WalRecordType::kCreate;
  record.dims = dims;
  return record;
}

storage::WalRecord IngestRecord(uint64_t base_epoch,
                                std::vector<double> coords) {
  storage::WalRecord record;
  record.type = storage::WalRecordType::kIngest;
  record.dims = 2;
  record.base_epoch = base_epoch;
  record.coords = std::move(coords);
  return record;
}

storage::WalRecord ExpireRecord(uint64_t begin, uint64_t end) {
  storage::WalRecord record;
  record.type = storage::WalRecordType::kExpire;
  record.expire_begin = begin;
  record.expire_end = end;
  return record;
}

/// Recovery over `data_dir` must fail with `code`, and the collection must
/// be neither readable nor writable afterwards.
void ExpectRecoveryRefused(const std::string& data_dir, StatusCode code) {
  obs::Registry registry;
  DurableRun run(DurableOptions(data_dir, &registry, nullptr));
  EXPECT_EQ(run.service.recovery_status().code(), code)
      << run.service.recovery_status();
  EXPECT_EQ(run.service.recovery_state(), RecoveryState::kFailed);
  auto stats = run.handle.Call(StatsRequest("c"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status.code(), StatusCode::kNotFound) << stats->status;
  auto ingest = run.handle.Call(IngestRequest("c", 2, {0.0, 0.0}));
  ASSERT_TRUE(ingest.ok());
  EXPECT_FALSE(ingest->status.ok());
}

TEST(DurabilityTest, LostIngestRecordFailsRecovery) {
  // The second batch claims base epoch 5 while only 2 points precede it:
  // a record in between was lost, and the fold must refuse the log.
  const std::string dir = FreshDataDir("lost_record");
  WriteLog(dir, {CreateRecord(2), IngestRecord(0, {0.0, 0.0, 1.0, 1.0}),
                 IngestRecord(5, {2.0, 2.0})});
  ExpectRecoveryRefused(dir, StatusCode::kIoError);
}

TEST(DurabilityTest, ExpireThatDoesNotExtendWindowFailsRecovery) {
  // After [0, 2) expired, [1, 3) re-expires id 1 instead of extending the
  // prefix: the alive mask would no longer be 0*1*.
  const std::string dir = FreshDataDir("bad_expire");
  WriteLog(dir, {CreateRecord(2),
                 IngestRecord(0, {0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0}),
                 ExpireRecord(0, 2), ExpireRecord(1, 3)});
  ExpectRecoveryRefused(dir, StatusCode::kIoError);
}

TEST(DurabilityTest, ZeroDimsRecordFailsRecoveryCleanly) {
  // CRC-valid but meaningless: recovery reports an error status instead
  // of dividing by zero while folding the log.
  storage::WalRecord ingest = IngestRecord(0, {});
  ingest.dims = 0;
  for (const storage::WalRecord& record : {CreateRecord(0), ingest}) {
    const std::string dir = FreshDataDir("zero_dims");
    WriteLog(dir, {record});
    ExpectRecoveryRefused(dir, StatusCode::kInvalidArgument);
  }
}

/// Every record of collection "c"'s WAL under `data_dir`, segment by
/// segment in sequence order.
std::vector<storage::WalRecord> ReadLog(const std::string& data_dir) {
  std::vector<std::string> segments;
  for (const auto& entry :
       std::filesystem::directory_iterator(data_dir + "/c")) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) {
      segments.push_back(entry.path().string());
    }
  }
  std::sort(segments.begin(), segments.end());  // zero-padded sequence
  std::vector<storage::WalRecord> records;
  for (const std::string& path : segments) {
    auto scan = storage::ScanWalFile(path);
    EXPECT_TRUE(scan.ok()) << path << ": " << scan.status();
    if (!scan.ok()) {
      continue;
    }
    EXPECT_FALSE(scan->torn) << path;
    for (const std::vector<uint8_t>& frame : scan->frames) {
      auto record = storage::DecodeWalRecord(frame);
      EXPECT_TRUE(record.ok()) << path << ": " << record.status();
      if (record.ok()) {
        records.push_back(*std::move(record));
      }
    }
  }
  return records;
}

void ExpectIngestRecord(const storage::WalRecord& record,
                        uint64_t base_epoch,
                        const std::vector<double>& coords) {
  EXPECT_EQ(record.type, storage::WalRecordType::kIngest);
  EXPECT_EQ(record.dims, 2u);
  EXPECT_EQ(record.base_epoch, base_epoch);
  EXPECT_EQ(record.coords, coords);
}

// The WAL a service writes, record by record: the create record first; in
// a pass that both expires and ingests, the pass's ingests before its
// expiry (the order they apply in: the expiry applies after the
// acknowledgement); one ingest record per accepted batch at consecutive
// base epochs; nothing for a rejected (NaN) batch or a zero-point batch; and
// after a restart the next ingest continues at the recovered epoch.
TEST(DurabilityTest, WalHoldsOneRecordPerAcceptedBatchInApplyOrder) {
  const std::string dir = FreshDataDir("wal_sequence");
  std::atomic<double> now{0.0};
  const std::vector<double> a = {0.0, 0.0, 0.5, 0.0, 0.0, 0.5};
  const std::vector<double> b = {5.0, 5.0, 5.5, 5.0};
  const std::vector<double> c = {9.0, 9.0, 9.5, 9.0, 9.0, 9.5, 9.5, 9.5};
  const std::vector<double> d = {2.0, 2.0, 2.5, 2.5};
  const double nan = std::numeric_limits<double>::quiet_NaN();

  {
    obs::Registry registry;
    ServiceOptions options = DurableOptions(dir, &registry, &now);
    options.ttl_seconds = 5.0;
    DurableRun run(options);
    ASSERT_TRUE(run.service.recovery_status().ok());
    auto first = run.handle.Call(IngestRequest("c", 2, a));
    ASSERT_TRUE(first.ok() && first->status.ok());
    EXPECT_EQ(first->epoch, 3u);
    // Four batches wait behind the pause while the first batch (stamped
    // 0, TTL 5) ages out; the resumed take applies them in one pass.
    run.service.SetApplyPausedForTest(true);
    ASSERT_TRUE(run.service.IngestAsync("c", 2, b).ok());
    ASSERT_TRUE(run.service.IngestAsync("c", 2, {nan, 0.0}).ok());
    ASSERT_TRUE(run.service.IngestAsync("c", 2, {}).ok());
    ASSERT_TRUE(run.service.IngestAsync("c", 2, c).ok());
    now.store(10.0);
    run.service.SetApplyPausedForTest(false);
    run.service.Drain();
    auto stats = run.handle.Call(StatsRequest("c"));
    ASSERT_TRUE(stats.ok() && stats->status.ok());
    EXPECT_EQ(stats->stats.epoch, 9u);
    EXPECT_EQ(stats->stats.window_begin, 3u);
    EXPECT_EQ(stats->stats.live_points, 6u);
    run.service.Stop();
  }

  {
    obs::Registry registry;
    ServiceOptions options = DurableOptions(dir, &registry, &now);
    options.ttl_seconds = 5.0;
    DurableRun run(options);
    ASSERT_TRUE(run.service.recovery_status().ok())
        << run.service.recovery_status();
    auto next = run.handle.Call(IngestRequest("c", 2, d));
    ASSERT_TRUE(next.ok() && next->status.ok());
    EXPECT_EQ(next->epoch, 11u);
  }

  const std::vector<storage::WalRecord> log = ReadLog(dir);
  ASSERT_EQ(log.size(), 6u);
  EXPECT_EQ(log[0].type, storage::WalRecordType::kCreate);
  EXPECT_EQ(log[0].dims, 2u);
  EXPECT_DOUBLE_EQ(log[0].ttl_seconds, 5.0);
  ExpectIngestRecord(log[1], 0, a);
  ExpectIngestRecord(log[2], 3, b);
  ExpectIngestRecord(log[3], 5, c);
  EXPECT_EQ(log[4].type, storage::WalRecordType::kExpire);
  EXPECT_EQ(log[4].expire_begin, 0u);
  EXPECT_EQ(log[4].expire_end, 3u);
  ExpectIngestRecord(log[5], 9, d);  // the recovered epoch
}

// An INGEST whose pass expires a range returns once its own points are
// published and committed, before the expiry applies; the expiry's record
// is committed with the pass all the same. A copy of the data dir taken
// as the INGEST returns is a crash image at that point (the expiry
// writes nothing more): restarting on it recovers the post-expiry window,
// labeled as DetectSequential labels the live points.
TEST(DurabilityTest, IngestAckFindsItsExpiryCommittedAndRecoverable) {
  const std::string dir = FreshDataDir("ack_expiry");
  const std::string crash = FreshDataDir("ack_expiry_crash");
  const size_t dims = 2;
  Rng rng(0xac4e);
  PointSet ingested(dims);
  std::atomic<double> now{0.0};
  // Large and dense, so that removing it outlasts the copy and the log
  // read below: an expiry committed only after it applied would be
  // missing from both.
  const PointSet first = testing::ClusteredPoints(&rng, 4000, dims, 2, 0.2);
  const PointSet second = testing::ClusteredPoints(&rng, 30, dims, 2, 0.2);

  {
    obs::Registry registry;
    ServiceOptions options = DurableOptions(dir, &registry, &now);
    options.ttl_seconds = 5.0;
    DurableRun run(options);
    ASSERT_TRUE(run.service.recovery_status().ok());
    Ingest(&run.handle, &ingested, first);  // lint:allow(discarded-status) void test helper
    // t=10: the first batch (stamped 0, TTL 5) is due in the next pass.
    now.store(10.0);
    Ingest(&run.handle, &ingested, second);  // lint:allow(discarded-status) void test helper
    std::filesystem::copy(dir, crash,
                          std::filesystem::copy_options::recursive);

    const std::vector<storage::WalRecord> log = ReadLog(dir);
    ASSERT_EQ(log.size(), 4u);
    EXPECT_EQ(log[0].type, storage::WalRecordType::kCreate);
    ExpectIngestRecord(log[1], 0, first.values());
    ExpectIngestRecord(log[2], first.size(), second.values());
    EXPECT_EQ(log[3].type, storage::WalRecordType::kExpire);
    EXPECT_EQ(log[3].expire_begin, 0u);
    EXPECT_EQ(log[3].expire_end, first.size());

    run.service.Drain();
    ExpectMatchesOracle(&run.handle, "c", ingested, TestParams(),
                        "after drain");
  }

  obs::Registry registry;
  ServiceOptions options = DurableOptions(crash, &registry, &now);
  options.ttl_seconds = 5.0;
  DurableRun run(options);
  ASSERT_TRUE(run.service.recovery_status().ok())
      << run.service.recovery_status();
  auto stats = run.handle.Call(StatsRequest("c"));
  ASSERT_TRUE(stats.ok() && stats->status.ok());
  EXPECT_EQ(stats->stats.window_begin, first.size());
  EXPECT_EQ(stats->stats.live_points, second.size());
  EXPECT_EQ(stats->stats.epoch, ingested.size());
  ExpectMatchesOracle(&run.handle, "c", ingested, TestParams(),
                      "after restart on the crash image");
}

// A SNAPSHOT reply carries two bytes per global id, a recovered base
// included. A collection recovered at window_begin 40M would need an
// 80 MB reply, past the frame cap: the service refuses it up front, and
// STATS and QUERY keep answering.
TEST(DurabilityTest, OversizedSnapshotReplyIsRefused) {
  const std::string dir = FreshDataDir("oversized_snapshot");
  storage::CollectionState state;
  state.dims = 2;
  state.window_begin = 40'000'000;
  state.epoch = state.window_begin + 2;
  state.coords = {0.0, 0.0, 0.5, 0.5};
  std::filesystem::create_directories(dir + "/c");
  ASSERT_TRUE(
      storage::WriteSnapshotFile(dir + "/c/snap-000001.snap", state).ok());

  obs::Registry registry;
  DurableRun run(DurableOptions(dir, &registry, nullptr));
  ASSERT_TRUE(run.service.recovery_status().ok())
      << run.service.recovery_status();
  auto snapshot = run.handle.Call(SnapshotRequest("c"));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(snapshot->status.code(), StatusCode::kFailedPrecondition)
      << snapshot->status;

  auto stats = run.handle.Call(StatsRequest("c"));
  ASSERT_TRUE(stats.ok() && stats->status.ok());
  EXPECT_EQ(stats->stats.epoch, state.epoch);
  EXPECT_EQ(stats->stats.live_points, 2u);
  auto query = run.handle.Call(
      QueryByIdRequest("c", static_cast<uint32_t>(state.window_begin + 1)));
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(query->status.ok()) << query->status;
  EXPECT_EQ(query->query.kind, PointKind::kOutlier);  // 2 points < min_pts
}

}  // namespace
}  // namespace dbscout::service
