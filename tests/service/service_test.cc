#include "service/service.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/str_util.h"
#include "core/dbscout.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/handle.h"
#include "testutil.h"

namespace dbscout::service {
namespace {

using core::PointKind;

ServiceOptions MakeOptions(double eps, int min_pts) {
  ServiceOptions options;
  options.params.eps = eps;
  options.params.min_pts = min_pts;
  return options;
}

std::vector<double> Flatten(const PointSet& points, size_t begin,
                            size_t end) {
  std::vector<double> coords;
  coords.reserve((end - begin) * points.dims());
  for (size_t i = begin; i < end; ++i) {
    for (double v : points[i]) {
      coords.push_back(v);
    }
  }
  return coords;
}

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

TEST(ServiceTest, IngestThenReadsMatchSequentialOracle) {
  Rng rng(20260806);
  const PointSet points = testing::ClusteredPoints(&rng, 600, 2, 3, 0.2);
  core::Params params;
  params.eps = 1.0;
  params.min_pts = 5;
  auto expected = core::DetectSequential(points, params);
  ASSERT_TRUE(expected.ok());

  DetectionService service(MakeOptions(params.eps, params.min_pts));
  ServiceHandle handle(&service);
  // Several batches through the full wire round trip.
  for (size_t begin = 0; begin < points.size(); begin += 100) {
    auto response = handle.Call(IngestRequest(
        "c", 2, Flatten(points, begin, std::min(begin + 100, points.size()))));
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response->status.ok()) << response->status;
    EXPECT_EQ(response->epoch, std::min(begin + 100, points.size()));
  }

  auto snapshot = handle.Call(SnapshotRequest("c"));
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(snapshot->status.ok()) << snapshot->status;
  EXPECT_EQ(snapshot->snapshot.epoch, points.size());
  EXPECT_EQ(snapshot->snapshot.kinds, expected->kinds);
  EXPECT_EQ(snapshot->snapshot.num_core, expected->num_core);

  auto stats = handle.Call(StatsRequest("c"));
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->status.ok());
  EXPECT_EQ(stats->stats.num_points, points.size());
  EXPECT_EQ(stats->stats.num_core, expected->num_core);
  EXPECT_EQ(stats->stats.num_outliers, expected->outliers.size());
  EXPECT_EQ(stats->stats.num_cells, expected->num_cells);
  EXPECT_EQ(stats->stats.admission_rejections, 0u);
  ASSERT_FALSE(stats->stats.phases.empty());
  EXPECT_EQ(stats->stats.phases[0].name, "apply");
  EXPECT_EQ(stats->stats.phases[0].records, points.size());

  // QUERY by id agrees with the snapshot for every point.
  for (uint32_t i = 0; i < points.size(); ++i) {
    Request query;
    query.verb = Verb::kQuery;
    query.collection = "c";
    query.query_by_id = true;
    query.query_id = i;
    auto response = handle.Call(query);
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->status.ok());
    ASSERT_EQ(response->query.kind, expected->kinds[i]) << "point " << i;
    EXPECT_EQ(response->query.epoch, points.size());
  }
}

TEST(ServiceTest, ProbeQueryMatchesBruteForceOnAppendedSet) {
  Rng rng(20260807);
  const PointSet points = testing::ClusteredPoints(&rng, 300, 2, 2, 0.25);
  const double eps = 1.0;
  const int min_pts = 5;
  DetectionService service(MakeOptions(eps, min_pts));
  ServiceHandle handle(&service);
  auto ingest =
      handle.Call(IngestRequest("c", 2, Flatten(points, 0, points.size())));
  ASSERT_TRUE(ingest.ok());
  ASSERT_TRUE(ingest->status.ok());

  for (int t = 0; t < 40; ++t) {
    const std::vector<double> probe = {rng.Uniform(-10.0, 10.0),
                                       rng.Uniform(-10.0, 10.0)};
    PointSet appended = points;
    appended.Add(probe);
    const PointKind expected =
        testing::BruteForceKinds(appended, eps, min_pts).back();

    Request query;
    query.verb = Verb::kQuery;
    query.collection = "c";
    query.query_by_id = false;
    query.query_point = probe;
    query.want_score = true;
    auto response = handle.Call(query);
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->status.ok());
    ASSERT_EQ(response->query.kind, expected) << "probe " << t;
    ASSERT_TRUE(response->query.has_score);
    if (expected == PointKind::kCore) {
      EXPECT_EQ(response->query.score, 0.0);
    } else if (expected == PointKind::kBorder) {
      EXPECT_LE(response->query.score, eps);
    } else {
      EXPECT_GT(response->query.score, eps);
    }
  }
}

TEST(ServiceTest, AdmissionCapShedsWithUnavailable) {
  ServiceOptions options = MakeOptions(1.0, 3);
  options.max_pending_ingests = 2;
  DetectionService service(options);
  service.SetApplyPausedForTest(true);

  EXPECT_TRUE(service.IngestAsync("c", 2, {0.0, 0.0}).ok());
  EXPECT_TRUE(service.IngestAsync("c", 2, {0.1, 0.1}).ok());
  const Status shed = service.IngestAsync("c", 2, {0.2, 0.2});
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.admission_rejections(), 1u);

  // A blocking ingest through Dispatch is shed the same way (it must not
  // block forever on a full queue).
  ServiceHandle handle(&service);
  auto blocked = handle.Call(IngestRequest("c", 2, {0.3, 0.3}));
  ASSERT_TRUE(blocked.ok());
  EXPECT_EQ(blocked->status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.admission_rejections(), 2u);

  // Resume: the queued batches drain and nothing shed was applied.
  service.SetApplyPausedForTest(false);
  service.Drain();
  auto stats = handle.Call(StatsRequest("c"));
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->status.ok());
  EXPECT_EQ(stats->stats.num_points, 2u);
  EXPECT_EQ(stats->stats.admission_rejections, 2u);
}

TEST(ServiceTest, UnknownCollectionIsNotFound) {
  DetectionService service(MakeOptions(1.0, 3));
  ServiceHandle handle(&service);
  for (Verb verb : {Verb::kQuery, Verb::kStats, Verb::kSnapshot}) {
    Request request;
    request.verb = verb;
    request.collection = "nope";
    request.query_by_id = true;
    auto response = handle.Call(request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status.code(), StatusCode::kNotFound);
  }
}

TEST(ServiceTest, RejectsBadBatches) {
  DetectionService service(MakeOptions(1.0, 3));
  ServiceHandle handle(&service);
  // dims = 0.
  auto r0 = handle.Call(IngestRequest("c", 0, {}));
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ(r0->status.code(), StatusCode::kInvalidArgument);
  // Ragged coords. The wire format cannot even express these (the point
  // count is derived from dims), so exercise the service-level validation
  // through Dispatch directly.
  const Response r1 = service.Dispatch(IngestRequest("c", 2, {1.0, 2.0, 3.0}));
  EXPECT_EQ(r1.status.code(), StatusCode::kInvalidArgument);
  // Dims change across batches of one collection.
  ASSERT_TRUE(handle.Call(IngestRequest("c", 2, {1.0, 2.0}))->status.ok());
  auto r2 = handle.Call(IngestRequest("c", 3, {1.0, 2.0, 3.0}));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->status.code(), StatusCode::kInvalidArgument);
  // Empty collection name.
  auto r3 = handle.Call(IngestRequest("", 2, {1.0, 2.0}));
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->status.code(), StatusCode::kInvalidArgument);
}

TEST(ServiceTest, QueryIdBeyondEpochIsOutOfRange) {
  DetectionService service(MakeOptions(1.0, 3));
  ServiceHandle handle(&service);
  ASSERT_TRUE(handle.Call(IngestRequest("c", 2, {0.0, 0.0}))->status.ok());
  Request query;
  query.verb = Verb::kQuery;
  query.collection = "c";
  query.query_by_id = true;
  query.query_id = 1;
  auto response = handle.Call(query);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status.code(), StatusCode::kOutOfRange);
}

TEST(ServiceTest, CollectionLimitEnforced) {
  DetectionService service(MakeOptions(1.0, 3));
  ServiceHandle handle(&service);
  for (size_t i = 0; i < kMaxCollections; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    ASSERT_TRUE(handle.Call(IngestRequest(name, 2, {0.0, 0.0}))->status.ok())
        << name;
  }
  auto r = handle.Call(IngestRequest("one_too_many", 2, {0.0, 0.0}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.code(), StatusCode::kFailedPrecondition);
  // An existing collection still takes batches at the limit.
  EXPECT_TRUE(handle.Call(IngestRequest("c0", 2, {1.0, 1.0}))->status.ok());
}

TEST(ServiceTest, StopDrainsQueueAndRefusesNewIngests) {
  DetectionService service(MakeOptions(1.0, 2));
  service.SetApplyPausedForTest(true);
  ASSERT_TRUE(service.IngestAsync("c", 1, {0.0}).ok());
  ASSERT_TRUE(service.IngestAsync("c", 1, {0.5}).ok());
  // Stop overrides the pause: the queued batches must be applied (graceful
  // drain), then new work refused.
  service.Stop();
  EXPECT_EQ(service.IngestAsync("c", 1, {1.0}).code(),
            StatusCode::kUnavailable);
  // Reads still work against the drained state.
  ServiceHandle handle(&service);
  auto snapshot = handle.Call(SnapshotRequest("c"));
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(snapshot->status.ok());
  EXPECT_EQ(snapshot->snapshot.epoch, 2u);
  // Both points within eps=1.0 of each other: minPts=2 makes them core.
  EXPECT_EQ(snapshot->snapshot.kinds,
            (std::vector<PointKind>{PointKind::kCore, PointKind::kCore}));
}

TEST(ServiceTest, StatsReportsUptime) {
  DetectionService service(MakeOptions(1.0, 2));
  ServiceHandle handle(&service);
  ASSERT_TRUE(service.IngestAsync("c", 1, {0.0}).ok());
  service.Drain();
  auto stats = handle.Call(StatsRequest("c"));
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->status.ok());
  EXPECT_GT(stats->stats.uptime_seconds, 0.0);
  EXPECT_GE(service.UptimeSeconds(), stats->stats.uptime_seconds);
}

Request MetricsRequest() {
  Request request;
  request.verb = Verb::kMetrics;
  return request;
}

TEST(ServiceTest, MetricsVerbScrapesLocalRegistry) {
  // A test-local registry isolates the assertions from whatever the global
  // registry accumulated in other tests.
  obs::Registry registry;
  ServiceOptions options = MakeOptions(1.0, 2);
  options.registry = &registry;
  DetectionService service(options);
  ServiceHandle handle(&service);

  // METRICS works before any collection exists (no collection required).
  auto empty_scrape = handle.Call(MetricsRequest());
  ASSERT_TRUE(empty_scrape.ok());
  ASSERT_TRUE(empty_scrape->status.ok());
  EXPECT_NE(empty_scrape->metrics.text.find("dbscout_ingest_points_total"),
            std::string::npos);

  ASSERT_TRUE(service.IngestAsync("c", 1, {0.0, 0.5, 1.0}).ok());
  service.Drain();
  auto query = handle.Call(StatsRequest("c"));
  ASSERT_TRUE(query.ok());

  const auto scrape = handle.Call(MetricsRequest());
  ASSERT_TRUE(scrape.ok());
  ASSERT_TRUE(scrape->status.ok());
  const std::string& text = scrape->metrics.text;
  EXPECT_NE(text.find("# TYPE dbscout_ingest_points_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("dbscout_ingest_points_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("dbscout_ingest_batches_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("dbscout_collections 1\n"), std::string::npos);
  // Per-verb latency histograms carry the verb label; the stats call above
  // must have been observed.
  EXPECT_NE(text.find("dbscout_request_seconds_count{verb=\"stats\"} 1"),
            std::string::npos);
  // Queue-wait and batch-size histograms saw the one applied batch.
  EXPECT_NE(text.find("dbscout_ingest_queue_wait_seconds_count 1"),
            std::string::npos);
  EXPECT_NE(text.find("dbscout_apply_batch_size_count 1"),
            std::string::npos);
}

TEST(ServiceTest, IngestErrorAndShedCountersTrack) {
  obs::Registry registry;
  ServiceOptions options = MakeOptions(1.0, 2);
  options.registry = &registry;
  options.max_pending_ingests = 1;
  DetectionService service(options);
  service.SetApplyPausedForTest(true);
  ASSERT_TRUE(service.IngestAsync("c", 1, {0.0}).ok());
  // Queue full: admission shed.
  EXPECT_EQ(service.IngestAsync("c", 1, {1.0}).code(),
            StatusCode::kUnavailable);
  service.SetApplyPausedForTest(false);
  service.Drain();
  // A non-finite coordinate passes admission (only dims are checked at
  // enqueue) but fails at apply time, feeding the error counter.
  ASSERT_TRUE(
      service
          .IngestAsync("c", 1,
                       {std::numeric_limits<double>::quiet_NaN()})
          .ok());
  service.Drain();
  const std::string text = service.Dispatch(MetricsRequest()).metrics.text;
  EXPECT_NE(text.find("dbscout_ingest_shed_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("dbscout_ingest_errors_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("dbscout_ingest_points_total 1\n"), std::string::npos);
}

TEST(ServiceTest, ApplyPassEmitsServiceTraceSpans) {
  obs::Registry registry;
  obs::TraceCollector trace;
  ServiceOptions options = MakeOptions(1.0, 2);
  options.registry = &registry;
  options.trace = &trace;
  DetectionService service(options);
  ASSERT_TRUE(service.IngestAsync("c", 1, {0.0, 0.5}).ok());
  service.Drain();
  bool saw_apply_pass = false;
  for (const auto& span : trace.Spans()) {
    if (span.name == "apply_pass" && span.cat == "service") {
      saw_apply_pass = true;
      EXPECT_EQ(span.records, 2u);
    }
  }
  EXPECT_TRUE(saw_apply_pass);
}

// An ingest pass whose window expires a range applies that expiry after
// the acknowledgement: its expire, snapshot_freeze and snapshot_publish
// spans carry the pass's trace id and start only after apply_pass ended,
// so no stage arithmetic nests them in the pass. The STATS expire row
// still counts the removals.
TEST(ServiceTest, ExpiryAfterAckEmitsSpansOutsideThePass) {
  std::atomic<double> now{0.0};
  obs::Registry registry;
  obs::TraceCollector trace;
  ServiceOptions options = MakeOptions(1.0, 2);
  options.registry = &registry;
  options.trace = &trace;
  options.ttl_seconds = 5.0;
  options.clock = [&now] { return now.load(); };
  DetectionService service(options);
  Request first = IngestRequest("c", 2, {0.0, 0.0, 0.1, 0.0, 0.2, 0.0});
  ASSERT_TRUE(service.Dispatch(first).status.ok());
  now.store(10.0);  // the first batch is due in the next pass
  Request second = IngestRequest("c", 2, {5.0, 5.0, 5.1, 5.0});
  second.context.trace_id = 0x5eed;
  ASSERT_TRUE(service.Dispatch(second).status.ok());
  service.Drain();

  const obs::TraceSpan* pass = nullptr;
  // The pass's apply-thread spans that end past it.
  std::vector<obs::TraceSpan> after;
  const std::vector<obs::TraceSpan> spans = trace.Spans();
  for (const obs::TraceSpan& span : spans) {
    if (span.name == "apply_pass" && span.trace_id == 0x5eed) {
      pass = &span;
    }
  }
  ASSERT_NE(pass, nullptr);
  const double pass_end = pass->start_seconds + pass->duration_seconds;
  for (const obs::TraceSpan& span : spans) {
    if (span.trace_id == 0x5eed && span.cat == "service" &&
        span.name != "apply_pass" &&
        span.start_seconds + span.duration_seconds > pass_end) {
      after.push_back(span);
    }
  }
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after[0].name, "expire");
  EXPECT_EQ(after[0].records, 3u);
  EXPECT_EQ(after[1].name, "snapshot_freeze");
  EXPECT_EQ(after[2].name, "snapshot_publish");
  for (const obs::TraceSpan& span : after) {
    EXPECT_GE(span.start_seconds, pass_end) << span.name;
    EXPECT_EQ(span.scope, "c");
  }

  auto stats = ServiceHandle(&service).Call(StatsRequest("c"));
  ASSERT_TRUE(stats.ok() && stats->status.ok());
  EXPECT_EQ(stats->stats.live_points, 2u);
  EXPECT_EQ(stats->stats.window_begin, 3u);
  const auto expire_row =
      std::find_if(stats->stats.phases.begin(), stats->stats.phases.end(),
                   [](const auto& row) { return row.name == "expire"; });
  ASSERT_NE(expire_row, stats->stats.phases.end());
  EXPECT_EQ(expire_row->records, 3u);
}

const StatsRow* FindPhase(const StatsAnswer& stats, const std::string& name) {
  for (const StatsRow& row : stats.phases) {
    if (row.name == name) {
      return &row;
    }
  }
  return nullptr;
}

// Each STATS row counts its own work: an expiry sweep's removals land in
// the expire row, seconds and distance computations alike, and leave the
// apply row exactly as the ingest left it.
TEST(ServiceTest, ExpirySweepCountsItsWorkInTheExpireRowOnly) {
  std::atomic<double> now{0.0};
  obs::Registry registry;
  ServiceOptions options = MakeOptions(1.0, 2);
  options.registry = &registry;
  options.ttl_seconds = 5.0;
  options.clock = [&now] { return now.load(); };
  DetectionService service(options);
  ServiceHandle handle(&service);
  // Three neighbors: removing each re-derives the counts of the others.
  ASSERT_TRUE(
      service.IngestAsync("c", 2, {0.0, 0.0, 0.1, 0.0, 0.2, 0.0}).ok());
  service.Drain();
  auto before = handle.Call(StatsRequest("c"));
  ASSERT_TRUE(before.ok() && before->status.ok());
  const StatsRow* apply_before = FindPhase(before->stats, "apply");
  ASSERT_NE(apply_before, nullptr);
  EXPECT_EQ(apply_before->records, 3u);

  now.store(10.0);  // a timer tick may expire the range first; either way
  service.SweepExpiredNow();
  auto after = handle.Call(StatsRequest("c"));
  ASSERT_TRUE(after.ok() && after->status.ok());
  EXPECT_EQ(after->stats.live_points, 0u);
  const StatsRow* apply_after = FindPhase(after->stats, "apply");
  ASSERT_NE(apply_after, nullptr);
  EXPECT_EQ(apply_after->seconds, apply_before->seconds);
  EXPECT_EQ(apply_after->distance_comps, apply_before->distance_comps);
  EXPECT_EQ(apply_after->records, 3u);
  const StatsRow* expire = FindPhase(after->stats, "expire");
  ASSERT_NE(expire, nullptr);
  EXPECT_EQ(expire->records, 3u);
  EXPECT_GT(expire->distance_comps, 0u);
}

// Collection b's range falls due while collection a ingests. Whether the
// ingest's coalesced pass or a 100 ms timer tick expires it, b's removals
// run only as an expire step after the acknowledgement: b's one
// detector_apply span is its own ingest's, and after Drain() its window
// and alive mask are exact.
TEST(ServiceTest, ExpiryDueWhileAnotherCollectionIngestsIsOneExpireStep) {
  std::atomic<double> now{0.0};
  obs::Registry registry;
  obs::TraceCollector trace;
  ServiceOptions options = MakeOptions(1.0, 2);
  options.registry = &registry;
  options.trace = &trace;
  options.ttl_seconds = 5.0;
  options.clock = [&now] { return now.load(); };
  DetectionService service(options);
  ServiceHandle handle(&service);
  ASSERT_TRUE(handle.Call(IngestRequest("a", 2, {0.0, 0.0, 0.1, 0.0}))
                  ->status.ok());
  // a keeps its points; only b's window moves.
  ASSERT_TRUE(handle.Call(ConfigureRequest("a", 100.0))->status.ok());
  ASSERT_TRUE(
      handle.Call(IngestRequest("b", 2, {3.0, 3.0, 3.1, 3.0, 3.2, 3.0}))
          ->status.ok());
  now.store(10.0);  // b's batch (stamped 0, TTL 5) is due
  ASSERT_TRUE(handle.Call(IngestRequest("a", 2, {0.2, 0.0}))->status.ok());
  service.Drain();

  size_t b_applies = 0;
  size_t b_expires = 0;
  for (const obs::TraceSpan& span : trace.Spans()) {
    if (span.scope != "b") {
      continue;
    }
    if (span.name == "detector_apply") {
      ++b_applies;
      EXPECT_EQ(span.records, 3u);
    } else if (span.name == "expire") {
      ++b_expires;
      EXPECT_EQ(span.records, 3u);
    }
  }
  EXPECT_EQ(b_applies, 1u);
  EXPECT_EQ(b_expires, 1u);

  auto stats = handle.Call(StatsRequest("b"));
  ASSERT_TRUE(stats.ok() && stats->status.ok());
  EXPECT_EQ(stats->stats.epoch, 3u);
  EXPECT_EQ(stats->stats.window_begin, 3u);
  EXPECT_EQ(stats->stats.live_points, 0u);
  auto snapshot = handle.Call(SnapshotRequest("b"));
  ASSERT_TRUE(snapshot.ok() && snapshot->status.ok());
  EXPECT_EQ(snapshot->snapshot.alive, (std::vector<uint8_t>{0, 0, 0}));
  auto a_snapshot = handle.Call(SnapshotRequest("a"));
  ASSERT_TRUE(a_snapshot.ok() && a_snapshot->status.ok());
  EXPECT_EQ(a_snapshot->snapshot.alive, (std::vector<uint8_t>{1, 1, 1}));
}

TEST(ServiceTest, ReadsOnFreshCollectionSeeEpochZero) {
  DetectionService service(MakeOptions(1.0, 3));
  service.SetApplyPausedForTest(true);
  // First batch parked in the queue: reads must see a valid empty epoch,
  // not crash or block.
  ASSERT_TRUE(service.IngestAsync("c", 2, {0.0, 0.0}).ok());
  ServiceHandle handle(&service);
  auto snapshot = handle.Call(SnapshotRequest("c"));
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(snapshot->status.ok());
  EXPECT_EQ(snapshot->snapshot.epoch, 0u);
  EXPECT_TRUE(snapshot->snapshot.kinds.empty());
  service.SetApplyPausedForTest(false);
  service.Drain();
  snapshot = handle.Call(SnapshotRequest("c"));
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->snapshot.epoch, 1u);
}

TEST(ServiceTest, ConfigureValidatesAndEchoesTtl) {
  DetectionService service(MakeOptions(1.0, 2));
  ServiceHandle handle(&service);
  // Unknown collection.
  auto missing = handle.Call(ConfigureRequest("nope", 5.0));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status.code(), StatusCode::kNotFound);

  ASSERT_TRUE(handle.Call(IngestRequest("c", 1, {0.0}))->status.ok());
  // Invalid TTLs are refused without touching the collection.
  for (double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    auto r = handle.Call(ConfigureRequest("c", bad));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status.code(), StatusCode::kInvalidArgument);
  }
  auto ok = handle.Call(ConfigureRequest("c", 7.5));
  ASSERT_TRUE(ok.ok());
  ASSERT_TRUE(ok->status.ok()) << ok->status;
  EXPECT_EQ(ok->configure.ttl_seconds, 7.5);
  auto stats = handle.Call(StatsRequest("c"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->stats.ttl_seconds, 7.5);
  // TTL 0 turns the window back off.
  ASSERT_TRUE(handle.Call(ConfigureRequest("c", 0.0))->status.ok());
  EXPECT_EQ(handle.Call(StatsRequest("c"))->stats.ttl_seconds, 0.0);
}

TEST(ServiceTest, SlidingWindowExpiresAgedBatches) {
  // The injected clock is read from the apply loop's expiry wakeups too,
  // hence atomic.
  std::atomic<double> now{0.0};
  ServiceOptions options = MakeOptions(1.0, 2);
  options.clock = [&now] { return now.load(); };
  obs::Registry registry;
  options.registry = &registry;
  DetectionService service(options);
  ServiceHandle handle(&service);

  // Batch A stamped at t=0, batch B at t=2, TTL 5 seconds.
  ASSERT_TRUE(
      handle.Call(IngestRequest("c", 2, {0.0, 0.0, 0.1, 0.0, 0.2, 0.0}))
          ->status.ok());
  ASSERT_TRUE(handle.Call(ConfigureRequest("c", 5.0))->status.ok());
  now.store(2.0);
  ASSERT_TRUE(
      handle.Call(IngestRequest("c", 2, {5.0, 5.0, 5.1, 5.0, 5.2, 5.0}))
          ->status.ok());

  // t=6: A (age 6) is out, B (age 4) stays.
  now.store(6.0);
  service.SweepExpiredNow();
  auto stats = handle.Call(StatsRequest("c"));
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->status.ok());
  EXPECT_EQ(stats->stats.num_points, 6u);  // epoch never rewinds
  EXPECT_EQ(stats->stats.live_points, 3u);
  EXPECT_EQ(stats->stats.window_begin, 3u);
  EXPECT_EQ(stats->stats.ttl_seconds, 5.0);

  auto snapshot = handle.Call(SnapshotRequest("c"));
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(snapshot->status.ok());
  EXPECT_EQ(snapshot->snapshot.epoch, 6u);
  EXPECT_EQ(snapshot->snapshot.alive,
            (std::vector<uint8_t>{0, 0, 0, 1, 1, 1}));
  // Expired points keep the last label they carried; the live batch is
  // still mutually core (three points within eps, minPts 2).
  EXPECT_EQ(snapshot->snapshot.kinds[3], PointKind::kCore);

  // t=20: everything ages out; the collection survives empty and accepts
  // new points.
  now.store(20.0);
  service.SweepExpiredNow();
  stats = handle.Call(StatsRequest("c"));
  EXPECT_EQ(stats->stats.live_points, 0u);
  EXPECT_EQ(stats->stats.window_begin, 6u);
  ASSERT_TRUE(
      handle.Call(IngestRequest("c", 2, {9.0, 9.0, 9.1, 9.0}))->status.ok());
  stats = handle.Call(StatsRequest("c"));
  EXPECT_EQ(stats->stats.live_points, 2u);
  EXPECT_EQ(stats->stats.num_points, 8u);
}

TEST(ServiceTest, DefaultTtlFromOptionsAppliesToNewCollections) {
  std::atomic<double> now{0.0};
  ServiceOptions options = MakeOptions(1.0, 2);
  options.ttl_seconds = 5.0;
  options.clock = [&now] { return now.load(); };
  obs::Registry registry;
  options.registry = &registry;
  DetectionService service(options);
  ServiceHandle handle(&service);
  ASSERT_TRUE(handle.Call(IngestRequest("c", 1, {0.0, 0.5}))->status.ok());
  EXPECT_EQ(handle.Call(StatsRequest("c"))->stats.ttl_seconds, 5.0);
  now.store(10.0);
  service.SweepExpiredNow();
  auto stats = handle.Call(StatsRequest("c"));
  EXPECT_EQ(stats->stats.live_points, 0u);
  EXPECT_EQ(stats->stats.window_begin, 2u);
}

TEST(ServiceTest, StatsReportsQueueDepthWhilePaused) {
  ServiceOptions options = MakeOptions(1.0, 2);
  obs::Registry registry;
  options.registry = &registry;
  DetectionService service(options);
  service.SetApplyPausedForTest(true);
  ASSERT_TRUE(service.IngestAsync("c", 1, {0.0}).ok());
  ASSERT_TRUE(service.IngestAsync("c", 1, {0.5}).ok());
  ServiceHandle handle(&service);
  auto stats = handle.Call(StatsRequest("c"));
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->status.ok());
  EXPECT_EQ(stats->stats.queue_depth, 2u);
  // The per-collection pending gauge mirrors it.
  const std::string text = registry.Expose();
  EXPECT_NE(text.find("dbscout_pending_batches{collection=\"c\"} 2"),
            std::string::npos)
      << text;
  service.SetApplyPausedForTest(false);
  service.Drain();
  stats = handle.Call(StatsRequest("c"));
  EXPECT_EQ(stats->stats.queue_depth, 0u);
}

Request QueryByIdRequest(const std::string& collection, uint32_t id) {
  Request request;
  request.verb = Verb::kQuery;
  request.collection = collection;
  request.query_by_id = true;
  request.query_id = id;
  return request;
}

Request ProbeRequest(const std::string& collection,
                     std::vector<double> point) {
  Request request;
  request.verb = Verb::kQuery;
  request.collection = collection;
  request.query_by_id = false;
  request.query_point = std::move(point);
  return request;
}

/// Asserts the collection's published state equals DetectSequential on its
/// live points: SNAPSHOT kinds (live points only; expired ones keep their
/// last label), STATS live and outlier counts, a by-id QUERY of every live
/// point, and probe QUERYs against brute force on the live set + probe.
void ExpectMatchesLiveOracle(ServiceHandle* handle, const std::string& name,
                             const PointSet& ingested,
                             const core::Params& params,
                             const std::vector<std::vector<double>>& probes,
                             const char* where) {
  auto snapshot = handle->Call(SnapshotRequest(name));
  ASSERT_TRUE(snapshot.ok()) << where;
  ASSERT_TRUE(snapshot->status.ok()) << where << ": " << snapshot->status;
  const SnapshotAnswer& snap = snapshot->snapshot;
  ASSERT_EQ(snap.epoch, ingested.size()) << where;

  PointSet live(ingested.dims());
  std::vector<uint32_t> live_ids;
  for (size_t i = 0; i < ingested.size(); ++i) {
    if (snap.alive[i] != 0) {
      live.Add(ingested[i]);
      live_ids.push_back(static_cast<uint32_t>(i));
    }
  }
  auto oracle = core::DetectSequential(live, params);
  ASSERT_TRUE(oracle.ok()) << where;
  for (size_t j = 0; j < live_ids.size(); ++j) {
    ASSERT_EQ(snap.kinds[live_ids[j]], oracle->kinds[j])
        << where << ": live point " << live_ids[j] << " (oracle index " << j
        << ")";
    auto by_id = handle->Call(QueryByIdRequest(name, live_ids[j]));
    ASSERT_TRUE(by_id.ok() && by_id->status.ok()) << where;
    ASSERT_EQ(by_id->query.kind, oracle->kinds[j])
        << where << ": by-id query of live point " << live_ids[j];
  }

  auto stats = handle->Call(StatsRequest(name));
  ASSERT_TRUE(stats.ok() && stats->status.ok()) << where;
  EXPECT_EQ(stats->stats.live_points, live.size()) << where;
  EXPECT_EQ(stats->stats.num_outliers,
            static_cast<uint64_t>(std::count(oracle->kinds.begin(),
                                             oracle->kinds.end(),
                                             PointKind::kOutlier)))
      << where;

  for (size_t t = 0; t < probes.size(); ++t) {
    PointSet appended = live;
    appended.Add(probes[t]);
    const PointKind expected =
        testing::BruteForceKinds(appended, params.eps, params.min_pts).back();
    auto probe = handle->Call(ProbeRequest(name, probes[t]));
    ASSERT_TRUE(probe.ok() && probe->status.ok()) << where;
    ASSERT_EQ(probe->query.kind, expected) << where << ": probe " << t;
  }
}

// A randomized workload under a sliding window: a first wide batch, then
// rounds of clustered, uniform and exact dim-0 slab-boundary points, with
// the published state checked against the oracle after every ingest and
// every expiry sweep. Slab-boundary points sit where AddBatchParallel's
// slab blocks meet, so a wave-scheduling bug shows up as a wrong label.
TEST(ServiceTest, WindowedWorkloadMatchesOracleAtEveryEpoch) {
  const size_t dims = 2;
  core::Params params;
  params.eps = 1.0;
  params.min_pts = 4;
  // The detector's cell side; multiples of it are exact dim-0 slab edges.
  const double side = params.eps / std::sqrt(static_cast<double>(dims));

  std::atomic<double> now{0.0};
  ServiceOptions options = MakeOptions(params.eps, params.min_pts);
  options.clock = [&now] { return now.load(); };
  obs::Registry registry;
  options.registry = &registry;
  DetectionService service(options);
  ServiceHandle handle(&service);

  Rng rng(20260809);
  PointSet ingested(dims);
  auto ingest = [&](const PointSet& batch) {
    for (size_t i = 0; i < batch.size(); ++i) {
      ingested.Add(batch[i]);
    }
    auto response = handle.Call(
        IngestRequest("c", dims, Flatten(batch, 0, batch.size())));
    ASSERT_TRUE(response.ok() && response->status.ok());
    ASSERT_EQ(response->epoch, ingested.size());
  };
  // Probes at random spots and on slab edges, fresh for every check.
  auto probes = [&] {
    std::vector<std::vector<double>> out;
    for (int k = 0; k < 6; ++k) {
      out.push_back({rng.Uniform(-2.0, 14.0), rng.Uniform(-2.0, 5.0)});
      out.push_back({static_cast<double>(rng.NextBounded(17)) * side,
                     rng.Uniform(0.0, 3.0)});
    }
    return out;
  };

  ingest(testing::UniformPoints(&rng, 120, dims, 0.0, 12.0));
  ExpectMatchesLiveOracle(&handle, "c", ingested, params, probes(),
                          "after first batch");

  ASSERT_TRUE(handle.Call(ConfigureRequest("c", 5.0))->status.ok());

  for (int round = 1; round <= 5; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    PointSet batch(dims);
    // Tight clusters at random centers: dense cores whose neighborhoods
    // can straddle slab blocks.
    const PointSet clusters = testing::ClusteredPoints(&rng, 50, dims, 3, 0.2);
    for (size_t i = 0; i < clusters.size(); ++i) {
      batch.Add(clusters[i]);
    }
    const PointSet noise = testing::UniformPoints(&rng, 20, dims, -2.0, 14.0);
    for (size_t i = 0; i < noise.size(); ++i) {
      batch.Add(noise[i]);
    }
    // Slab-boundary points: x exactly on a dim-0 slab edge, plus the
    // nearest double to each side of it.
    for (int k = 0; k < 6; ++k) {
      const double edge = static_cast<double>(rng.NextBounded(17)) * side;
      const double y = rng.Uniform(0.0, 3.0);
      batch.Add({edge, y});
      batch.Add({std::nextafter(edge, -1e9), y});
      batch.Add({std::nextafter(edge, 1e9), y});
    }
    ingest(batch);
    ExpectMatchesLiveOracle(&handle, "c", ingested, params, probes(),
                            "after ingest");

    // Age the window by 2 s per round: round r's sweep expires everything
    // stamped at or before t = 2r - 5 (the first batch, then each round's
    // batch in turn); the removals run in the same detector pass shape as
    // the adds.
    now.store(2.0 * round);
    service.SweepExpiredNow();
    ExpectMatchesLiveOracle(&handle, "c", ingested, params, probes(),
                            "after sweep");
  }

  // Everything ages out, then one fresh batch over the old coordinate
  // range still labels exactly.
  now.store(1000.0);
  service.SweepExpiredNow();
  {
    auto stats = handle.Call(StatsRequest("c"));
    ASSERT_TRUE(stats.ok() && stats->status.ok());
    EXPECT_EQ(stats->stats.live_points, 0u);
  }
  ingest(testing::ClusteredPoints(&rng, 60, dims, 2, 0.3));
  ExpectMatchesLiveOracle(&handle, "c", ingested, params, probes(),
                          "after refill");
}

// Collections share the service's apply loop and wave pool: creating more
// of them must not start threads of their own.
TEST(ServiceTest, ThreadsDoNotGrowWithCollections) {
  ServiceOptions options = MakeOptions(1.0, 2);
  obs::Registry registry;
  options.registry = &registry;
  DetectionService service(options);
  ServiceHandle handle(&service);
  Request health;
  health.verb = Verb::kHealth;
  auto threads = [&] {
    auto response = handle.Call(health);
    EXPECT_TRUE(response.ok() && response->status.ok());
    return response.ok() ? response->health.threads : 0;
  };

  ASSERT_TRUE(
      handle.Call(IngestRequest("c0", 2, {0.0, 0.0, 0.5, 0.0}))->status.ok());
  const uint64_t after_first = threads();
  if (after_first == 0) {
    GTEST_SKIP() << "no /proc/self/task on this platform";
  }
  for (int k = 1; k < 8; ++k) {
    ASSERT_TRUE(handle
                    .Call(IngestRequest(StrFormat("c%d", k), 2,
                                        {0.0, 0.0, 0.5, 0.0}))
                    ->status.ok());
  }
  EXPECT_EQ(threads(), after_first);
}

}  // namespace
}  // namespace dbscout::service
