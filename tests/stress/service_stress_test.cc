// TSan stress test for the detection service's snapshot protocol: one
// ingest driver streams batches through blocking INGESTs while reader
// tasks hammer SNAPSHOT and QUERY concurrently. Every answer carries the
// epoch it was computed at, and the test asserts it equals what
// DetectSequential produces on exactly that prefix of the insertion
// sequence — so a torn snapshot, a racy COW clone, or a label published
// before its batch finished fails in every build mode, and TSan sees the
// reader/writer interleavings on the shared chunk storage.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dbscout.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/service.h"
#include "testutil.h"

namespace dbscout::service {
namespace {

using core::PointKind;

constexpr size_t kNumPoints = 1200;
constexpr size_t kBatch = 40;

/// Sequential-oracle labelings per id window, computed lazily and memoized
/// so readers checking the same window don't redo the work.
class Oracle {
 public:
  Oracle(const PointSet& points, const core::Params& params)
      : points_(points), params_(params) {}

  /// Labels of the prefix [0, epoch).
  std::vector<PointKind> KindsAt(uint64_t epoch) { return KindsOf(0, epoch); }

  /// Labels of the live window [begin, end), indexed from `begin`.
  std::vector<PointKind> KindsOf(uint64_t begin, uint64_t end) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find({begin, end});
    if (it != cache_.end()) {
      return it->second;
    }
    auto detection = core::DetectSequential(Slice(begin, end), params_);
    EXPECT_TRUE(detection.ok());
    auto kinds = detection.ok() ? detection->kinds : std::vector<PointKind>{};
    cache_.emplace(std::make_pair(begin, end), kinds);
    return kinds;
  }

  /// Label the probe would get from the sequential engine on prefix+probe.
  PointKind ProbeKindAt(uint64_t epoch, const std::vector<double>& probe) {
    PointSet appended = Slice(0, epoch);
    appended.Add(probe);
    auto detection = core::DetectSequential(appended, params_);
    EXPECT_TRUE(detection.ok());
    return detection.ok() ? detection->kinds.back() : PointKind::kOutlier;
  }

 private:
  PointSet Slice(uint64_t begin, uint64_t end) const {
    PointSet slice(points_.dims());
    for (uint64_t i = begin; i < end; ++i) {
      slice.Add(points_[i]);
    }
    return slice;
  }

  const PointSet& points_;
  const core::Params params_;
  std::mutex mu_;
  std::map<std::pair<uint64_t, uint64_t>, std::vector<PointKind>> cache_;
};

TEST(ServiceStressTest, SnapshotsExactAtEveryEpochUnderConcurrentIngest) {
  Rng rng(20260809);
  const PointSet points =
      testing::ClusteredPoints(&rng, kNumPoints, 2, 3, 0.25);
  core::Params params;
  params.eps = 1.0;
  params.min_pts = 6;
  Oracle oracle(points, params);

  DetectionService service([&] {
    ServiceOptions options;
    options.params = params;
    return options;
  }());

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> reads{0};

  ThreadPool pool(4);  // 1 ingest driver + 3 readers
  pool.Submit([&] {
    for (size_t begin = 0; begin < kNumPoints; begin += kBatch) {
      Request request;
      request.verb = Verb::kIngest;
      request.collection = "stream";
      request.dims = 2;
      for (size_t i = begin; i < begin + kBatch; ++i) {
        for (double v : points[i]) {
          request.coords.push_back(v);
        }
      }
      const Response response = service.Dispatch(request);
      if (!response.status.ok() || response.epoch != begin + kBatch) {
        ++failures;
        break;
      }
    }
    done.store(true, std::memory_order_release);
  });

  for (int reader = 0; reader < 3; ++reader) {
    pool.Submit([&, reader] {
      Rng reader_rng(1000 + reader);
      // One trailing iteration after `done` so the final epoch is checked.
      bool last_pass = false;
      while (true) {
        if (done.load(std::memory_order_acquire)) {
          if (last_pass) {
            break;
          }
          last_pass = true;
        }
        Request snap_req;
        snap_req.verb = Verb::kSnapshot;
        snap_req.collection = "stream";
        const Response snap = service.Dispatch(snap_req);
        if (snap.status.code() == StatusCode::kNotFound) {
          continue;  // first batch not applied yet
        }
        if (!snap.status.ok()) {
          ++failures;
          continue;
        }
        ++reads;
        const uint64_t epoch = snap.snapshot.epoch;
        if (epoch % kBatch != 0 ||
            snap.snapshot.kinds != oracle.KindsAt(epoch)) {
          ++failures;
          continue;
        }
        if (epoch > 0) {
          // QUERY by id must agree with the oracle at ITS epoch (which may
          // be newer than the snapshot's).
          Request query;
          query.verb = Verb::kQuery;
          query.collection = "stream";
          query.query_by_id = true;
          query.query_id =
              static_cast<uint32_t>(reader_rng.NextBounded(epoch));
          const Response answer = service.Dispatch(query);
          if (!answer.status.ok() ||
              answer.query.kind !=
                  oracle.KindsAt(answer.query.epoch)[query.query_id]) {
            ++failures;
          }
          // Occasional probe: exact against the sequential engine run on
          // prefix + probe.
          if (reader_rng.NextBounded(8) == 0) {
            Request probe;
            probe.verb = Verb::kQuery;
            probe.collection = "stream";
            probe.query_by_id = false;
            probe.query_point = {reader_rng.Uniform(-10.0, 10.0),
                                 reader_rng.Uniform(-10.0, 10.0)};
            const Response kind = service.Dispatch(probe);
            if (!kind.status.ok() ||
                kind.query.kind !=
                    oracle.ProbeKindAt(kind.query.epoch, probe.query_point)) {
              ++failures;
            }
          }
        }
      }
    });
  }

  pool.WaitIdle();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0u);

  // Final state is exactly the batch oracle on the full dataset.
  Request final_req;
  final_req.verb = Verb::kSnapshot;
  final_req.collection = "stream";
  const Response final_snap = service.Dispatch(final_req);
  ASSERT_TRUE(final_snap.status.ok());
  EXPECT_EQ(final_snap.snapshot.epoch, kNumPoints);
  EXPECT_EQ(final_snap.snapshot.kinds, oracle.KindsAt(kNumPoints));
}

TEST(ServiceStressTest, AsyncBurstsCoalesceAndDrainExact) {
  // Fire-and-forget bursts from the driver force the apply loop to
  // coalesce multiple queued batches per pass while readers keep loading
  // snapshots; after Drain the labeling must equal the oracle.
  Rng rng(20260810);
  const PointSet points = testing::ClusteredPoints(&rng, 800, 2, 2, 0.3);
  core::Params params;
  params.eps = 1.0;
  params.min_pts = 5;

  ServiceOptions options;
  options.params = params;
  options.max_pending_ingests = 1u << 20;  // never shed in this test
  DetectionService service(options);

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  ThreadPool pool(3);
  pool.Submit([&] {
    for (size_t begin = 0; begin < points.size(); begin += 20) {
      std::vector<double> coords;
      for (size_t i = begin; i < begin + 20; ++i) {
        for (double v : points[i]) {
          coords.push_back(v);
        }
      }
      if (!service.IngestAsync("burst", 2, std::move(coords)).ok()) {
        ++failures;
      }
    }
    done.store(true, std::memory_order_release);
  });
  for (int reader = 0; reader < 2; ++reader) {
    pool.Submit([&] {
      while (!done.load(std::memory_order_acquire)) {
        Request request;
        request.verb = Verb::kSnapshot;
        request.collection = "burst";
        const Response snap = service.Dispatch(request);
        if (!snap.status.ok() &&
            snap.status.code() != StatusCode::kNotFound) {
          ++failures;
        }
        // Epochs are batch-aligned even when passes coalesce.
        if (snap.status.ok() && snap.snapshot.epoch % 20 != 0) {
          ++failures;
        }
      }
    });
  }
  pool.WaitIdle();
  service.Drain();
  EXPECT_EQ(failures.load(), 0);

  auto expected = core::DetectSequential(points, params);
  ASSERT_TRUE(expected.ok());
  Request request;
  request.verb = Verb::kSnapshot;
  request.collection = "burst";
  const Response snap = service.Dispatch(request);
  ASSERT_TRUE(snap.status.ok());
  EXPECT_EQ(snap.snapshot.epoch, points.size());
  EXPECT_EQ(snap.snapshot.kinds, expected->kinds);
}

TEST(ServiceStressTest, WindowedIngestExpiryVsReadersStaysConsistent) {
  // Sliding-window variant: a short TTL makes the apply loop interleave
  // prefix expiry (detector Remove + re-derivation) with coalesced inserts
  // while readers hold and walk COW snapshots. TSan sees writer/reader
  // interleavings on the shared chunk storage and the alive mask; in every
  // build mode the structural invariants below must hold for every answer:
  // expiry only ever removes a prefix, so an alive mask is always 0* 1*.
  Rng rng(20260811);
  const PointSet points = testing::ClusteredPoints(&rng, 900, 2, 3, 0.25);
  core::Params params;
  params.eps = 1.0;
  params.min_pts = 5;

  ServiceOptions options;
  options.params = params;
  options.ttl_seconds = 0.02;  // ages whole batches out mid-stream
  options.max_pending_ingests = 1u << 20;
  DetectionService service(options);

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> reads{0};

  ThreadPool pool(4);  // 1 ingest driver + 3 readers
  pool.Submit([&] {
    for (size_t begin = 0; begin < points.size(); begin += 30) {
      Request request;
      request.verb = Verb::kIngest;
      request.collection = "window";
      request.dims = 2;
      for (size_t i = begin; i < begin + 30; ++i) {
        for (double v : points[i]) {
          request.coords.push_back(v);
        }
      }
      const Response response = service.Dispatch(request);
      if (!response.status.ok()) {
        ++failures;
        break;
      }
      // Force extra expiry passes between batches (beyond the periodic
      // wakeups) so removals and inserts interleave densely.
      if ((begin / 30) % 5 == 0) {
        service.SweepExpiredNow();
      }
    }
    done.store(true, std::memory_order_release);
  });

  for (int reader = 0; reader < 3; ++reader) {
    pool.Submit([&, reader] {
      Rng reader_rng(3000 + reader);
      bool last_pass = false;
      while (true) {
        if (done.load(std::memory_order_acquire)) {
          if (last_pass) {
            break;
          }
          last_pass = true;
        }
        Request snap_req;
        snap_req.verb = Verb::kSnapshot;
        snap_req.collection = "window";
        const Response snap = service.Dispatch(snap_req);
        if (snap.status.code() == StatusCode::kNotFound) {
          continue;
        }
        if (!snap.status.ok()) {
          ++failures;
          continue;
        }
        ++reads;
        const uint64_t epoch = snap.snapshot.epoch;
        if (epoch % 30 != 0 || snap.snapshot.kinds.size() != epoch ||
            snap.snapshot.alive.size() != epoch) {
          ++failures;
          continue;
        }
        // Prefix expiry: alive flags never go 1 -> 0 along the id axis.
        for (size_t i = 1; i < epoch; ++i) {
          if (snap.snapshot.alive[i] < snap.snapshot.alive[i - 1]) {
            ++failures;
            break;
          }
        }
        Request stats_req;
        stats_req.verb = Verb::kStats;
        stats_req.collection = "window";
        const Response stats = service.Dispatch(stats_req);
        // Every field comes from one published snapshot, so the window
        // adds up: the live points are exactly the ids not yet expired.
        if (!stats.status.ok() ||
            stats.stats.live_points !=
                stats.stats.epoch - stats.stats.window_begin ||
            stats.stats.ttl_seconds != 0.02) {
          ++failures;
        }
        if (epoch > 0) {
          // A by-id query answers NotFound only for an expired id: one
          // below the window_begin of a STATS read after it (the window
          // only moves forward).
          Request query;
          query.verb = Verb::kQuery;
          query.collection = "window";
          query.query_by_id = true;
          query.query_id =
              static_cast<uint32_t>(reader_rng.NextBounded(epoch));
          const Response answer = service.Dispatch(query);
          if (answer.status.code() == StatusCode::kNotFound) {
            const Response after = service.Dispatch(stats_req);
            if (!after.status.ok() ||
                query.query_id >= after.stats.window_begin) {
              ++failures;
            }
          } else if (!answer.status.ok()) {
            ++failures;
          }
        }
      }
    });
  }

  pool.WaitIdle();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0u);

  // Quiesce, then age everything out: the emptied window must equal a
  // fresh detector (no residue from a thousand interleaved removals).
  service.Drain();
  Request configure;
  configure.verb = Verb::kConfigure;
  configure.collection = "window";
  configure.ttl_seconds = 1e-9;
  ASSERT_TRUE(service.Dispatch(configure).status.ok());
  service.SweepExpiredNow();
  Request stats_req;
  stats_req.verb = Verb::kStats;
  stats_req.collection = "window";
  const Response stats = service.Dispatch(stats_req);
  ASSERT_TRUE(stats.status.ok());
  EXPECT_EQ(stats.stats.num_points, points.size());
  EXPECT_EQ(stats.stats.live_points, 0u);
  EXPECT_EQ(stats.stats.window_begin, points.size());
  EXPECT_EQ(stats.stats.num_core, 0u);
  EXPECT_EQ(stats.stats.num_outliers, 0u);
}

// Every ingest pass carries a due expiry, which the apply loop applies
// after the INGEST is acknowledged: readers SNAPSHOT and QUERY while it
// publishes each pass twice (the ack snapshot, then the post-expiry one).
// On an injected clock batch k is stamped at t = k/2 with a TTL of 1 s,
// so pass k expires batch k-2 and every epoch has exactly two windows a
// reader may see: batches [k-2, k] before the expiry and [k-1, k] after
// (a timer sweep between the clock step and the pass publishes only the
// latter). Every snapshot's alive mask must be 0*1* and its live labels
// must equal DetectSequential on exactly its live ids; a by-id QUERY of a
// point live in both windows must match the oracle on one of them, and
// may answer NotFound only once its batch has expired at the answering
// epoch.
TEST(ServiceStressTest, ExpiryAfterAckKeepsReadersExact) {
  constexpr size_t kWindowBatch = 30;
  Rng rng(20260812);
  const PointSet points = testing::ClusteredPoints(&rng, 900, 2, 3, 0.25);
  core::Params params;
  params.eps = 1.0;
  params.min_pts = 5;
  Oracle oracle(points, params);

  std::atomic<double> now{0.0};
  ServiceOptions options;
  options.params = params;
  options.ttl_seconds = 1.0;
  options.clock = [&now] { return now.load(); };
  DetectionService service(options);

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> expiring_reads{0};  // snapshots before the expiry

  ThreadPool pool(4);  // 1 ingesting thread + 3 readers
  pool.Submit([&] {
    for (size_t k = 0; k * kWindowBatch < points.size(); ++k) {
      now.store(0.5 * static_cast<double>(k));
      Request request;
      request.verb = Verb::kIngest;
      request.collection = "window";
      request.dims = 2;
      for (size_t i = k * kWindowBatch; i < (k + 1) * kWindowBatch; ++i) {
        for (double v : points[i]) {
          request.coords.push_back(v);
        }
      }
      const Response response = service.Dispatch(request);
      if (!response.status.ok() || response.epoch != (k + 1) * kWindowBatch) {
        ++failures;
        break;
      }
    }
    done.store(true, std::memory_order_release);
  });

  for (int reader = 0; reader < 3; ++reader) {
    pool.Submit([&, reader] {
      Rng reader_rng(4000 + reader);
      bool last_pass = false;
      while (true) {
        if (done.load(std::memory_order_acquire)) {
          if (last_pass) {
            break;
          }
          last_pass = true;
        }
        Request snap_req;
        snap_req.verb = Verb::kSnapshot;
        snap_req.collection = "window";
        const Response snap = service.Dispatch(snap_req);
        if (snap.status.code() == StatusCode::kNotFound) {
          continue;
        }
        if (!snap.status.ok()) {
          ++failures;
          continue;
        }
        ++reads;
        const uint64_t epoch = snap.snapshot.epoch;
        const std::vector<uint8_t>& alive = snap.snapshot.alive;
        if (epoch % kWindowBatch != 0 || alive.size() != epoch ||
            snap.snapshot.kinds.size() != epoch) {
          ++failures;
          continue;
        }
        const uint64_t first = static_cast<uint64_t>(
            std::find(alive.begin(), alive.end(), 1) - alive.begin());
        if (std::find(alive.begin() + static_cast<std::ptrdiff_t>(first),
                      alive.end(), 0) != alive.end()) {
          ++failures;  // not 0*1*
          continue;
        }
        const uint64_t pre =
            epoch < 3 * kWindowBatch ? 0 : epoch - 3 * kWindowBatch;
        const uint64_t post =
            epoch < 2 * kWindowBatch ? 0 : epoch - 2 * kWindowBatch;
        if (first != pre && first != post) {
          ++failures;
          continue;
        }
        if (first != post) {
          ++expiring_reads;
        }
        const std::vector<PointKind> expected = oracle.KindsOf(first, epoch);
        if (!std::equal(expected.begin(), expected.end(),
                        snap.snapshot.kinds.begin() +
                            static_cast<std::ptrdiff_t>(first))) {
          ++failures;
          continue;
        }
        if (epoch == 0) {
          continue;
        }
        // A point of the newest batch; its QUERY may answer at a newer
        // epoch, where it is checked only while live in both windows.
        Request query;
        query.verb = Verb::kQuery;
        query.collection = "window";
        query.query_by_id = true;
        query.query_id = static_cast<uint32_t>(
            epoch - kWindowBatch + reader_rng.NextBounded(kWindowBatch));
        const Response answer = service.Dispatch(query);
        const uint64_t at = answer.query.epoch;
        const uint64_t id = query.query_id;
        if (answer.status.code() == StatusCode::kNotFound) {
          // Expired at `at` in at least the post-expiry window.
          if (at % kWindowBatch != 0 || at < epoch ||
              at < 2 * kWindowBatch || id >= at - 2 * kWindowBatch) {
            ++failures;
          }
          continue;
        }
        if (!answer.status.ok()) {
          ++failures;
          continue;
        }
        if (at % kWindowBatch != 0 || at < epoch) {
          ++failures;
        } else if (at < 2 * kWindowBatch || id >= at - 2 * kWindowBatch) {
          const uint64_t at_pre =
              at < 3 * kWindowBatch ? 0 : at - 3 * kWindowBatch;
          const uint64_t at_post =
              at < 2 * kWindowBatch ? 0 : at - 2 * kWindowBatch;
          if (answer.query.kind != oracle.KindsOf(at_pre, at)[id - at_pre] &&
              answer.query.kind != oracle.KindsOf(at_post, at)[id - at_post]) {
            ++failures;
          }
        }
      }
    });
  }

  pool.WaitIdle();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  // How often a reader caught a pass between its ack and its expiry
  // depends on scheduling; printed so a run shows the path was hit.
  std::printf("snapshots read: %llu, before their pass's expiry: %llu\n",
              static_cast<unsigned long long>(reads.load()),
              static_cast<unsigned long long>(expiring_reads.load()));

  // Once drained, the last pass's expiry is published too.
  service.Drain();
  const uint64_t end = points.size();
  Request snap_req;
  snap_req.verb = Verb::kSnapshot;
  snap_req.collection = "window";
  const Response snap = service.Dispatch(snap_req);
  ASSERT_TRUE(snap.status.ok());
  ASSERT_EQ(snap.snapshot.epoch, end);
  const std::vector<PointKind> expected =
      oracle.KindsOf(end - 2 * kWindowBatch, end);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         snap.snapshot.kinds.end() -
                             static_cast<std::ptrdiff_t>(2 * kWindowBatch)));
  Request stats_req;
  stats_req.verb = Verb::kStats;
  stats_req.collection = "window";
  const Response stats = service.Dispatch(stats_req);
  ASSERT_TRUE(stats.status.ok());
  EXPECT_EQ(stats.stats.window_begin, end - 2 * kWindowBatch);
  EXPECT_EQ(stats.stats.live_points, 2 * kWindowBatch);
}

// Observability verbs under fire: while stamped INGESTs stream through a
// traced service, reader tasks hammer TRACE (ring dump with varying
// filters) and HEALTH concurrently. TSan watches the span ring's mutex,
// the health gauges' relaxed atomics, and the histogram exemplar slots;
// the assertions pin that dumps are always well-formed and health always
// answers while the writer keeps mutating.
TEST(ServiceStressTest, ConcurrentTraceAndHealthReadersStayConsistent) {
  ServiceOptions options;
  options.params.eps = 1.0;
  options.params.min_pts = 4;
  obs::Registry registry;
  options.registry = &registry;
  obs::TraceCollector trace(512);  // small ring: wraps many times
  options.trace = &trace;
  options.slow_request_seconds = 1e9;  // slow-log path armed, never firing
  DetectionService service(options);

  constexpr size_t kBatches = 60;
  constexpr size_t kReaders = 4;
  std::atomic<bool> done{false};
  ThreadPool pool(kReaders + 1);

  pool.Submit([&] {
    Rng rng(20260809);
    for (size_t b = 0; b < kBatches; ++b) {
      const PointSet batch = testing::UniformPoints(&rng, 25, 2, 0.0, 8.0);
      Request request;
      request.verb = Verb::kIngest;
      request.collection = (b % 2) == 0 ? "even" : "odd";
      request.dims = 2;
      request.coords = batch.values();
      request.context.trace_id = 0x1000 + b;
      const Response response = service.Dispatch(request);
      ASSERT_TRUE(response.status.ok()) << response.status;
      ASSERT_EQ(response.trace_id, 0x1000 + b);
    }
    done.store(true, std::memory_order_release);
  });

  for (size_t r = 0; r < kReaders; ++r) {
    pool.Submit([&, r] {
      uint64_t dumps = 0;
      while (!done.load(std::memory_order_acquire)) {
        if (r % 2 == 0) {
          Request dump;
          dump.verb = Verb::kTrace;
          if (dumps % 3 == 1) {
            dump.collection = "even";  // scope filter
          } else if (dumps % 3 == 2) {
            dump.trace_limit = 16;
          }
          const Response response = service.Dispatch(dump);
          ASSERT_TRUE(response.status.ok()) << response.status;
          // Cheap well-formedness pin; the full JSON checker runs in the
          // non-stress observability test.
          ASSERT_EQ(response.trace.json.rfind("{\"traceEvents\":[", 0), 0u);
          ASSERT_EQ(response.trace.json.back(), '}');
          ASSERT_LE(response.trace.spans_retained, 512u);
        } else {
          Request probe;
          probe.verb = Verb::kHealth;
          const Response response = service.Dispatch(probe);
          ASSERT_TRUE(response.status.ok()) << response.status;
          ASSERT_EQ(response.health.state, HealthState::kReady);
          ASSERT_LE(response.health.collections, 2u);
        }
        ++dumps;
      }
    });
  }

  pool.WaitIdle();
  service.Stop();
  EXPECT_GT(trace.dropped(), 0u);  // the ring really wrapped under load
}

}  // namespace
}  // namespace dbscout::service
