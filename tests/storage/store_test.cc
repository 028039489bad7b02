// CollectionStore lifecycle: recovery round-trips, torn-tail handling,
// compaction + retention, corrupt-snapshot fallback, segment-gap
// detection, and the core durability property — recovering from the
// newest snapshot plus the WAL suffix reconstructs exactly the state of
// folding every record ever logged.

#include "storage/store.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace dbscout::storage {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

StoreOptions TestOptions(obs::Registry* registry) {
  StoreOptions options;
  options.fsync = FsyncPolicy::kNever;  // tests exercise logic, not disks
  options.snapshot_interval_bytes = 0;  // explicit CompactNow only
  options.registry = registry;
  options.collection = "test";
  return options;
}

WalRecord Ingest(uint16_t dims, uint64_t base_epoch,
                 std::vector<double> coords) {
  WalRecord record;
  record.type = WalRecordType::kIngest;
  record.dims = dims;
  record.base_epoch = base_epoch;
  record.coords = std::move(coords);
  return record;
}

WalRecord Expire(uint64_t begin, uint64_t end) {
  WalRecord record;
  record.type = WalRecordType::kExpire;
  record.expire_begin = begin;
  record.expire_end = end;
  return record;
}

/// Ground truth: fold a full record log into a state from scratch.
CollectionState FoldAll(const std::vector<WalRecord>& records) {
  CollectionState state;
  for (const WalRecord& record : records) {
    EXPECT_TRUE(ApplyRecordToState(record, &state).ok());
  }
  return state;
}

/// What recovery reconstructs: the recovered base plus its suffix.
CollectionState FoldRecovered(const RecoveredCollection& recovered) {
  CollectionState state = recovered.base;
  for (const WalRecord& record : recovered.suffix) {
    EXPECT_TRUE(ApplyRecordToState(record, &state).ok());
  }
  return state;
}

void ExpectSameState(const CollectionState& a, const CollectionState& b) {
  EXPECT_EQ(a.dims, b.dims);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.window_begin, b.window_begin);
  EXPECT_DOUBLE_EQ(a.ttl_seconds, b.ttl_seconds);
  EXPECT_EQ(a.coords, b.coords);
}

/// A mixed 40-record log with interleaved expiries and a TTL change.
std::vector<WalRecord> MixedLog() {
  std::vector<WalRecord> records;
  WalRecord create;
  create.type = WalRecordType::kCreate;
  create.dims = 2;
  create.ttl_seconds = 0.0;
  records.push_back(create);
  uint64_t epoch = 0;
  uint64_t window = 0;
  for (int round = 0; round < 12; ++round) {
    std::vector<double> coords;
    const size_t count = 1 + static_cast<size_t>(round % 4);
    for (size_t i = 0; i < count * 2; ++i) {
      coords.push_back(static_cast<double>(round) + 0.01 * i);
    }
    records.push_back(Ingest(2, epoch, coords));
    epoch += count;
    if (round % 3 == 2 && window + 1 < epoch) {
      records.push_back(Expire(window, window + 2));
      window += 2;
    }
    if (round == 7) {
      WalRecord configure;
      configure.type = WalRecordType::kConfigure;
      configure.ttl_seconds = 42.0;
      records.push_back(configure);
    }
  }
  return records;
}

TEST(CollectionStoreTest, FreshDirectoryRecoversEmpty) {
  obs::Registry registry;
  RecoveredCollection recovered;
  auto store = CollectionStore::Open(FreshDir("store_fresh"),
                                     TestOptions(&registry), &recovered);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(recovered.base.epoch, 0u);
  EXPECT_EQ(recovered.base.dims, 0u);
  EXPECT_TRUE(recovered.suffix.empty());
  EXPECT_TRUE((*store)->Close().ok());
}

TEST(CollectionStoreTest, LoggedRecordsRecoverInOrder) {
  const std::string dir = FreshDir("store_roundtrip");
  obs::Registry registry;
  const std::vector<WalRecord> records = MixedLog();
  {
    RecoveredCollection recovered;
    auto store =
        CollectionStore::Open(dir, TestOptions(&registry), &recovered);
    ASSERT_TRUE(store.ok()) << store.status();
    for (const WalRecord& record : records) {
      ASSERT_TRUE((*store)->LogRecord(record).ok());
    }
    ASSERT_TRUE((*store)->Commit().ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  RecoveredCollection recovered;
  auto store =
      CollectionStore::Open(dir, TestOptions(&registry), &recovered);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(recovered.base.epoch, 0u);  // never compacted
  ASSERT_EQ(recovered.suffix.size(), records.size());
  ExpectSameState(FoldRecovered(recovered), FoldAll(records));
  EXPECT_TRUE((*store)->Close().ok());
}

// The property the whole design hangs on: snapshot + WAL suffix is
// indistinguishable from replaying the full WAL, wherever compaction
// strikes in the log.
TEST(CollectionStoreTest, SnapshotPlusSuffixEqualsFullReplay) {
  const std::vector<WalRecord> records = MixedLog();
  const CollectionState expected = FoldAll(records);
  for (size_t compact_at = 0; compact_at <= records.size();
       compact_at += 7) {
    const std::string dir = FreshDir("store_property");
    obs::Registry registry;
    {
      RecoveredCollection recovered;
      auto store =
          CollectionStore::Open(dir, TestOptions(&registry), &recovered);
      ASSERT_TRUE(store.ok()) << store.status();
      for (size_t i = 0; i < records.size(); ++i) {
        if (i == compact_at) {
          ASSERT_TRUE((*store)->CompactNow().ok());
        }
        ASSERT_TRUE((*store)->LogRecord(records[i]).ok());
      }
      ASSERT_TRUE((*store)->Close().ok());
    }
    RecoveredCollection recovered;
    auto store =
        CollectionStore::Open(dir, TestOptions(&registry), &recovered);
    ASSERT_TRUE(store.ok()) << store.status();
    SCOPED_TRACE(::testing::Message()
                 << "compacted after record " << compact_at);
    ExpectSameState(FoldRecovered(recovered), expected);
    if (compact_at > 0) {
      EXPECT_GT(recovered.base.epoch, 0u);  // the snapshot did real work
    }
    EXPECT_TRUE((*store)->Close().ok());
  }
}

TEST(CollectionStoreTest, CorruptNewestSnapshotFallsBackOneGeneration) {
  const std::string dir = FreshDir("store_fallback");
  obs::Registry registry;
  const std::vector<WalRecord> records = MixedLog();
  {
    RecoveredCollection recovered;
    auto store =
        CollectionStore::Open(dir, TestOptions(&registry), &recovered);
    ASSERT_TRUE(store.ok()) << store.status();
    for (size_t i = 0; i < records.size(); ++i) {
      ASSERT_TRUE((*store)->LogRecord(records[i]).ok());
      if (i == records.size() / 3 || i == 2 * records.size() / 3) {
        ASSERT_TRUE((*store)->CompactNow().ok());
      }
    }
    ASSERT_TRUE((*store)->Close().ok());
  }
  // Truncate the newest snapshot to simulate a crash mid-compaction that
  // somehow survived the atomic rename (e.g. media truncation).
  std::string newest;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) == 0 &&
        (newest.empty() || entry.path().string() > newest)) {
      newest = entry.path().string();
    }
  }
  ASSERT_FALSE(newest.empty());
  fs::resize_file(newest, fs::file_size(newest) / 2);

  RecoveredCollection recovered;
  auto store =
      CollectionStore::Open(dir, TestOptions(&registry), &recovered);
  ASSERT_TRUE(store.ok()) << store.status();
  ExpectSameState(FoldRecovered(recovered), FoldAll(records));
  EXPECT_TRUE((*store)->Close().ok());
}

/// Logs MixedLog() into `dir` with two compactions on the way and returns
/// the newest snapshot's path.
std::string LogWithTwoGenerations(const std::string& dir,
                                  obs::Registry* registry) {
  const std::vector<WalRecord> records = MixedLog();
  RecoveredCollection recovered;
  auto store = CollectionStore::Open(dir, TestOptions(registry), &recovered);
  EXPECT_TRUE(store.ok()) << store.status();
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_TRUE((*store)->LogRecord(records[i]).ok());
    if (i == records.size() / 3 || i == 2 * records.size() / 3) {
      EXPECT_TRUE((*store)->CompactNow().ok());
    }
  }
  EXPECT_TRUE((*store)->Close().ok());
  std::string newest;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) == 0 &&
        (newest.empty() || entry.path().string() > newest)) {
      newest = entry.path().string();
    }
  }
  return newest;
}

TEST(CollectionStoreTest, PartialRowSnapshotFallsBackOneGeneration) {
  // A CRC-valid newest snapshot whose coordinate block carries one stray
  // double past its last row: the reader rejects it, and recovery falls
  // back to the older generation plus its longer WAL suffix.
  const std::string dir = FreshDir("store_partial_row");
  obs::Registry registry;
  const std::string newest = LogWithTwoGenerations(dir, &registry);
  ASSERT_FALSE(newest.empty());
  auto state = ReadSnapshotFile(newest);
  ASSERT_TRUE(state.ok()) << state.status();
  state->coords.push_back(1.5);
  ASSERT_TRUE(WriteSnapshotFile(newest, *state).ok());
  ASSERT_FALSE(ReadSnapshotFile(newest).ok());

  RecoveredCollection recovered;
  auto store =
      CollectionStore::Open(dir, TestOptions(&registry), &recovered);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_LT(recovered.base.epoch, state->epoch);  // the older generation
  ExpectSameState(FoldRecovered(recovered), FoldAll(MixedLog()));
  EXPECT_TRUE((*store)->Close().ok());
}

TEST(CollectionStoreTest, TornTailIsTruncatedAndAppendable) {
  const std::string dir = FreshDir("store_torn");
  obs::Registry registry;
  const std::vector<WalRecord> records = MixedLog();
  {
    RecoveredCollection recovered;
    auto store =
        CollectionStore::Open(dir, TestOptions(&registry), &recovered);
    ASSERT_TRUE(store.ok()) << store.status();
    for (const WalRecord& record : records) {
      ASSERT_TRUE((*store)->LogRecord(record).ok());
    }
    ASSERT_TRUE((*store)->Close().ok());
  }
  // Simulate a crash mid-append: chop bytes off the active segment.
  const std::string tail = dir + "/wal-000001.log";
  ASSERT_TRUE(fs::exists(tail));
  const auto size = fs::file_size(tail);
  fs::resize_file(tail, size - 3);

  RecoveredCollection recovered;
  auto store =
      CollectionStore::Open(dir, TestOptions(&registry), &recovered);
  ASSERT_TRUE(store.ok()) << store.status();
  // The last record was torn off; everything before it survived.
  ASSERT_EQ(recovered.suffix.size(), records.size() - 1);
  // And the reopened store can append new records at the truncated tail.
  const CollectionState state = FoldRecovered(recovered);
  ASSERT_TRUE(
      (*store)->LogRecord(Ingest(2, state.epoch, {9.0, 9.5})).ok());
  ASSERT_TRUE((*store)->Close().ok());

  RecoveredCollection again;
  auto reopened =
      CollectionStore::Open(dir, TestOptions(&registry), &again);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(again.suffix.size(), records.size());
  EXPECT_TRUE((*reopened)->Close().ok());
}

TEST(CollectionStoreTest, CorruptFrameInSuffixIsHardError) {
  const std::string dir = FreshDir("store_corrupt");
  obs::Registry registry;
  {
    RecoveredCollection recovered;
    auto store =
        CollectionStore::Open(dir, TestOptions(&registry), &recovered);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(
        (*store)->LogRecord(Ingest(2, 0, {1.0, 2.0, 3.0, 4.0})).ok());
    ASSERT_TRUE((*store)->LogRecord(Ingest(2, 2, {5.0, 6.0})).ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  // Flip a payload byte of the FIRST frame (a complete frame, not a torn
  // tail): recovery must refuse to load rather than serve corrupt points.
  const std::string segment = dir + "/wal-000001.log";
  std::fstream file(segment,
                    std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(static_cast<std::streamoff>(kWalHeaderBytes + 8 + 4));
  char byte = 0;
  file.read(&byte, 1);
  file.seekp(static_cast<std::streamoff>(kWalHeaderBytes + 8 + 4));
  byte = static_cast<char>(byte ^ 0x10);
  file.write(&byte, 1);
  file.close();

  RecoveredCollection recovered;
  auto store =
      CollectionStore::Open(dir, TestOptions(&registry), &recovered);
  EXPECT_FALSE(store.ok());
}

TEST(CollectionStoreTest, MissingSegmentIsHardError) {
  const std::string dir = FreshDir("store_gap");
  obs::Registry registry;
  {
    RecoveredCollection recovered;
    auto store =
        CollectionStore::Open(dir, TestOptions(&registry), &recovered);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE((*store)->LogRecord(Ingest(2, 0, {1.0, 2.0})).ok());
    ASSERT_TRUE((*store)->CompactNow().ok());  // seals wal-1, opens wal-2
    ASSERT_TRUE((*store)->LogRecord(Ingest(2, 1, {3.0, 4.0})).ok());
    ASSERT_TRUE((*store)->CompactNow().ok());  // seals wal-2, opens wal-3
    ASSERT_TRUE((*store)->LogRecord(Ingest(2, 2, {5.0, 6.0})).ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  // Retention keeps snap-1 + snap-2 and segments 2..3. Deleting snap-2
  // forces recovery onto snap-1 + segments 2..3; deleting wal-2 as well
  // leaves a gap it must refuse to jump.
  ASSERT_TRUE(fs::remove(dir + "/snap-000002.snap"));
  ASSERT_TRUE(fs::remove(dir + "/wal-000002.log"));
  RecoveredCollection recovered;
  auto store =
      CollectionStore::Open(dir, TestOptions(&registry), &recovered);
  EXPECT_FALSE(store.ok());
}

TEST(CollectionStoreTest, RetentionKeepsTwoGenerations) {
  const std::string dir = FreshDir("store_retention");
  obs::Registry registry;
  RecoveredCollection recovered;
  auto store =
      CollectionStore::Open(dir, TestOptions(&registry), &recovered);
  ASSERT_TRUE(store.ok()) << store.status();
  uint64_t epoch = 0;
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(
        (*store)
            ->LogRecord(Ingest(2, epoch, {1.0 * round, 2.0 * round}))
            .ok());
    ++epoch;
    ASSERT_TRUE((*store)->CompactNow().ok());
  }
  ASSERT_TRUE((*store)->Close().ok());
  size_t snapshots = 0;
  size_t segments = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    snapshots += name.rfind("snap-", 0) == 0 ? 1 : 0;
    segments += name.rfind("wal-", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(snapshots, 2u);  // newest + one fallback generation
  EXPECT_LE(segments, 2u);   // suffix of the fallback + the active tail
}

TEST(CollectionStoreTest, AutoCompactionTriggersOnSegmentSize) {
  const std::string dir = FreshDir("store_autocompact");
  obs::Registry registry;
  StoreOptions options = TestOptions(&registry);
  options.snapshot_interval_bytes = 256;  // tiny: trip after a few records
  RecoveredCollection recovered;
  auto store = CollectionStore::Open(dir, options, &recovered);
  ASSERT_TRUE(store.ok()) << store.status();
  uint64_t epoch = 0;
  for (int i = 0; i < 20; ++i) {
    std::vector<double> coords(8, static_cast<double>(i));
    ASSERT_TRUE((*store)->LogRecord(Ingest(2, epoch, coords)).ok());
    epoch += 4;
    ASSERT_TRUE((*store)->Commit().ok());
  }
  ASSERT_TRUE((*store)->Close().ok());
  bool found_snapshot = false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("snap-", 0) == 0) {
      found_snapshot = true;
    }
  }
  EXPECT_TRUE(found_snapshot);
}

TEST(CollectionDirNameTest, RoundTripsArbitraryNames) {
  for (const std::string name :
       {"plain", "with space", "dots.and/slashes", "caf\xC3\xA9", "%", "-_"}) {
    const std::string encoded = EncodeCollectionDirName(name);
    EXPECT_EQ(encoded.find('/'), std::string::npos) << encoded;
    auto decoded = DecodeCollectionDirName(encoded);
    ASSERT_TRUE(decoded.ok()) << encoded;
    EXPECT_EQ(*decoded, name);
  }
  EXPECT_FALSE(DecodeCollectionDirName("bad%2").ok());
  EXPECT_FALSE(DecodeCollectionDirName("bad%zz").ok());
}

}  // namespace
}  // namespace dbscout::storage
