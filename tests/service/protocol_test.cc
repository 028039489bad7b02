#include "service/protocol.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace dbscout::service {
namespace {

using core::PointKind;

TEST(ProtocolTest, IngestRequestRoundTrip) {
  Request request;
  request.verb = Verb::kIngest;
  request.collection = "sensors";
  request.dims = 3;
  request.coords = {1.0, 2.0, 3.0, -4.5, 0.0, 1e-9};
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->verb, Verb::kIngest);
  EXPECT_EQ(decoded->collection, "sensors");
  EXPECT_EQ(decoded->dims, 3);
  EXPECT_EQ(decoded->coords, request.coords);
}

TEST(ProtocolTest, QueryByIdRequestRoundTrip) {
  Request request;
  request.verb = Verb::kQuery;
  request.collection = "c";
  request.query_by_id = true;
  request.query_id = 123456;
  request.want_score = true;
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->verb, Verb::kQuery);
  EXPECT_TRUE(decoded->query_by_id);
  EXPECT_EQ(decoded->query_id, 123456u);
  EXPECT_TRUE(decoded->want_score);
}

TEST(ProtocolTest, ProbeQueryRequestRoundTrip) {
  Request request;
  request.verb = Verb::kQuery;
  request.collection = "c";
  request.query_by_id = false;
  request.query_point = {0.25, -0.75};
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_FALSE(decoded->query_by_id);
  EXPECT_EQ(decoded->query_point, request.query_point);
  EXPECT_FALSE(decoded->want_score);
}

TEST(ProtocolTest, StatsAndSnapshotRequestsRoundTrip) {
  for (Verb verb : {Verb::kStats, Verb::kSnapshot, Verb::kMetrics}) {
    Request request;
    request.verb = verb;
    request.collection = "x";
    auto decoded = DecodeRequest(EncodeRequest(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->verb, verb);
    EXPECT_EQ(decoded->collection, "x");
  }
}

TEST(ProtocolTest, MetricsRequestAllowsEmptyCollection) {
  // METRICS scrapes the whole service; no collection is required.
  Request request;
  request.verb = Verb::kMetrics;
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->verb, Verb::kMetrics);
  EXPECT_TRUE(decoded->collection.empty());
}

TEST(ProtocolTest, IngestResponseRoundTrip) {
  Response response;
  response.verb = Verb::kIngest;
  response.epoch = 77;
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->status.ok());
  EXPECT_EQ(decoded->epoch, 77u);
}

TEST(ProtocolTest, QueryResponseRoundTrip) {
  Response response;
  response.verb = Verb::kQuery;
  response.query.kind = PointKind::kBorder;
  response.query.epoch = 42;
  response.query.has_score = true;
  response.query.score = 1.25;
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->query.kind, PointKind::kBorder);
  EXPECT_EQ(decoded->query.epoch, 42u);
  ASSERT_TRUE(decoded->query.has_score);
  EXPECT_EQ(decoded->query.score, 1.25);
}

TEST(ProtocolTest, StatsResponseRoundTrip) {
  Response response;
  response.verb = Verb::kStats;
  response.stats.epoch = 10;
  response.stats.num_points = 10;
  response.stats.num_core = 6;
  response.stats.num_cells = 4;
  response.stats.num_outliers = 2;
  response.stats.admission_rejections = 3;
  response.stats.uptime_seconds = 12.75;
  response.stats.phases = {{"apply", 0.5, 1000, 10}, {"query", 0.25, 12, 2}};
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->stats.epoch, 10u);
  EXPECT_EQ(decoded->stats.num_core, 6u);
  EXPECT_EQ(decoded->stats.num_outliers, 2u);
  EXPECT_EQ(decoded->stats.admission_rejections, 3u);
  EXPECT_EQ(decoded->stats.uptime_seconds, 12.75);
  EXPECT_EQ(decoded->stats.phases, response.stats.phases);
}

TEST(ProtocolTest, MetricsResponseRoundTrip) {
  Response response;
  response.verb = Verb::kMetrics;
  response.metrics.text =
      "# HELP dbscout_x_total x\n# TYPE dbscout_x_total counter\n"
      "dbscout_x_total 5\n";
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->status.ok());
  EXPECT_EQ(decoded->metrics.text, response.metrics.text);
}

TEST(ProtocolTest, EmptyMetricsResponseRoundTrip) {
  Response response;
  response.verb = Verb::kMetrics;
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->metrics.text.empty());
}

TEST(ProtocolTest, SnapshotResponseRoundTrip) {
  Response response;
  response.verb = Verb::kSnapshot;
  response.snapshot.epoch = 3;
  response.snapshot.num_core = 1;
  response.snapshot.num_cells = 2;
  response.snapshot.kinds = {PointKind::kCore, PointKind::kBorder,
                             PointKind::kOutlier};
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->snapshot.epoch, 3u);
  EXPECT_EQ(decoded->snapshot.kinds, response.snapshot.kinds);
}

TEST(ProtocolTest, ErrorResponseRoundTrip) {
  Response response;
  response.verb = Verb::kIngest;
  response.status = Status::Unavailable("queue full");
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(decoded->status.message(), "queue full");
}

TEST(ProtocolTest, RejectsUnknownVerb) {
  Request request;
  request.verb = Verb::kStats;
  request.collection = "c";
  std::vector<uint8_t> bytes = EncodeRequest(request);
  bytes[0] = 99;
  EXPECT_FALSE(DecodeRequest(bytes).ok());
}

TEST(ProtocolTest, RejectsTruncatedFrames) {
  Request request;
  request.verb = Verb::kIngest;
  request.collection = "sensors";
  request.dims = 2;
  request.coords = {1.0, 2.0};
  const std::vector<uint8_t> bytes = EncodeRequest(request);
  // Every proper prefix must be rejected, never read out of bounds.
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeRequest({bytes.data(), len}).ok()) << "len " << len;
  }
}

TEST(ProtocolTest, RejectsTruncatedResponses) {
  // Every proper prefix of every response shape must be rejected cleanly —
  // including through the newer STATS uptime_seconds field and the METRICS
  // text payload.
  std::vector<Response> responses;
  {
    Response r;
    r.verb = Verb::kStats;
    r.stats.epoch = 1;
    r.stats.num_points = 2;
    r.stats.uptime_seconds = 3.5;
    r.stats.phases = {{"apply", 0.5, 1000, 10}};
    responses.push_back(std::move(r));
  }
  {
    Response r;
    r.verb = Verb::kMetrics;
    r.metrics.text = "dbscout_x_total 5\n";
    responses.push_back(std::move(r));
  }
  {
    Response r;
    r.verb = Verb::kQuery;
    r.query.kind = PointKind::kCore;
    r.query.has_score = true;
    r.query.score = 0.5;
    responses.push_back(std::move(r));
  }
  for (const Response& response : responses) {
    const std::vector<uint8_t> bytes = EncodeResponse(response);
    for (size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_FALSE(DecodeResponse({bytes.data(), len}).ok())
          << "verb " << static_cast<int>(response.verb) << " len " << len;
    }
    auto full = DecodeResponse(bytes);
    EXPECT_TRUE(full.ok()) << full.status();
  }
}

TEST(ProtocolTest, RejectsTrailingBytes) {
  Request request;
  request.verb = Verb::kStats;
  request.collection = "c";
  std::vector<uint8_t> bytes = EncodeRequest(request);
  bytes.push_back(0);
  EXPECT_FALSE(DecodeRequest(bytes).ok());
}

TEST(ProtocolTest, RejectsLyingCountsWithoutOverflow) {
  // An INGEST header claiming ~500M points backed by no bytes must fail
  // cleanly (the count*dims multiplication must not be trusted).
  std::vector<uint8_t> bytes;
  bytes.push_back(static_cast<uint8_t>(Verb::kIngest));
  bytes.push_back(0);                      // flags
  bytes.push_back(1);                      // name len lo
  bytes.push_back(0);                      // name len hi
  bytes.push_back('c');                    // name
  bytes.push_back(8);                      // dims lo
  bytes.push_back(0);                      // dims hi
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(0xFF);                 // count = 2^32-1
  }
  EXPECT_FALSE(DecodeRequest(bytes).ok());
}

TEST(ProtocolTest, ConfigureRequestRoundTripAndTruncation) {
  Request request;
  request.verb = Verb::kConfigure;
  request.collection = "window";
  request.ttl_seconds = 37.5;
  const std::vector<uint8_t> bytes = EncodeRequest(request);
  auto decoded = DecodeRequest(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->verb, Verb::kConfigure);
  EXPECT_EQ(decoded->collection, "window");
  EXPECT_EQ(decoded->ttl_seconds, 37.5);
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeRequest({bytes.data(), len}).ok()) << "len " << len;
  }
}

TEST(ProtocolTest, ConfigureResponseRoundTripAndTruncation) {
  Response response;
  response.verb = Verb::kConfigure;
  response.configure.ttl_seconds = 12.25;
  const std::vector<uint8_t> bytes = EncodeResponse(response);
  auto decoded = DecodeResponse(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->status.ok());
  EXPECT_EQ(decoded->configure.ttl_seconds, 12.25);
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeResponse({bytes.data(), len}).ok()) << "len " << len;
  }
}

TEST(ProtocolTest, StatsWindowFieldsRoundTrip) {
  Response response;
  response.verb = Verb::kStats;
  response.stats.epoch = 100;
  response.stats.num_points = 100;
  response.stats.live_points = 60;
  response.stats.window_begin = 40;
  response.stats.queue_depth = 7;
  response.stats.ttl_seconds = 300.0;
  const std::vector<uint8_t> bytes = EncodeResponse(response);
  auto decoded = DecodeResponse(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->stats.live_points, 60u);
  EXPECT_EQ(decoded->stats.window_begin, 40u);
  EXPECT_EQ(decoded->stats.queue_depth, 7u);
  EXPECT_EQ(decoded->stats.ttl_seconds, 300.0);
  // Truncation through the window fields must fail cleanly.
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeResponse({bytes.data(), len}).ok()) << "len " << len;
  }
}

TEST(ProtocolTest, SnapshotAliveMaskRoundTrip) {
  Response response;
  response.verb = Verb::kSnapshot;
  response.snapshot.epoch = 4;
  response.snapshot.num_core = 1;
  response.snapshot.kinds = {PointKind::kCore, PointKind::kBorder,
                             PointKind::kOutlier, PointKind::kOutlier};
  response.snapshot.alive = {1, 0, 1, 0};
  const std::vector<uint8_t> bytes = EncodeResponse(response);
  auto decoded = DecodeResponse(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->snapshot.kinds, response.snapshot.kinds);
  EXPECT_EQ(decoded->snapshot.alive, response.snapshot.alive);
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeResponse({bytes.data(), len}).ok()) << "len " << len;
  }
}

TEST(ProtocolTest, RejectsBadAliveByteInSnapshot) {
  Response response;
  response.verb = Verb::kSnapshot;
  response.snapshot.epoch = 1;
  response.snapshot.kinds = {PointKind::kCore};
  response.snapshot.alive = {1};
  std::vector<uint8_t> bytes = EncodeResponse(response);
  bytes.back() = 2;  // alive mask entries must be 0 or 1
  EXPECT_FALSE(DecodeResponse(bytes).ok());
}

TEST(ProtocolTest, RejectsBadPointKindInResponse) {
  Response response;
  response.verb = Verb::kSnapshot;
  response.snapshot.epoch = 1;
  response.snapshot.kinds = {PointKind::kCore};
  std::vector<uint8_t> bytes = EncodeResponse(response);
  bytes.back() = 7;  // invalid PointKind
  EXPECT_FALSE(DecodeResponse(bytes).ok());
}

// ---------------------------------------------------------------------------
// Trace header (optional RequestContext riding on the verb byte's high
// bit) and the TRACE/HEALTH verbs.

TEST(TraceHeaderTest, RequestRoundTripsContext) {
  Request request;
  request.verb = Verb::kIngest;
  request.collection = "sensors";
  request.dims = 2;
  request.coords = {1.0, 2.0};
  request.context.trace_id = 0xfeedfacecafebeefull;
  request.context.origin_seconds = 1723180000.25;
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->context, request.context);
  EXPECT_EQ(decoded->coords, request.coords);
}

TEST(TraceHeaderTest, UntracedRequestIsByteIdenticalToPreTraceEncoding) {
  // The compat contract: a request without a context must encode exactly
  // as it did before the header existed — no flag bit, no extra bytes —
  // so old servers keep decoding new clients.
  Request request;
  request.verb = Verb::kStats;
  request.collection = "c";
  const std::vector<uint8_t> bytes = EncodeRequest(request);
  EXPECT_EQ(bytes[0], static_cast<uint8_t>(Verb::kStats));
  EXPECT_EQ(bytes[0] & kTraceHeaderFlag, 0);
  auto decoded = DecodeRequest(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->context.trace_id, 0u);

  Request traced = request;
  traced.context.trace_id = 1;
  const std::vector<uint8_t> traced_bytes = EncodeRequest(traced);
  // The header costs exactly u64 + f64 and sets only the flag bit.
  EXPECT_EQ(traced_bytes.size(), bytes.size() + 16);
  EXPECT_EQ(traced_bytes[0], bytes[0] | kTraceHeaderFlag);
}

TEST(TraceHeaderTest, FlaggedFrameLooksLikeUnknownVerbToOldDecoders) {
  // A pre-trace decoder sees verb byte 0x81 and rejects it as an unknown
  // verb. We can't run the old decoder, but we can pin the wire fact it
  // relies on: the flagged byte is outside the verb range.
  Request request;
  request.verb = Verb::kIngest;
  request.collection = "c";
  request.dims = 1;
  request.coords = {1.0};
  request.context.trace_id = 42;
  const std::vector<uint8_t> bytes = EncodeRequest(request);
  EXPECT_GT(bytes[0], static_cast<uint8_t>(Verb::kHealth));
}

TEST(TraceHeaderTest, RejectsFlagWithZeroTraceId) {
  // trace_id 0 means "no context"; a flagged header carrying it is a
  // frame error, not a silent downgrade.
  Request request;
  request.verb = Verb::kStats;
  request.collection = "c";
  request.context.trace_id = 7;
  std::vector<uint8_t> bytes = EncodeRequest(request);
  // Zero out the 8 trace-id bytes right after the verb byte.
  for (size_t i = 1; i <= 8; ++i) {
    bytes[i] = 0;
  }
  EXPECT_FALSE(DecodeRequest(bytes).ok());
}

TEST(TraceHeaderTest, RejectsTruncatedHeaderEverywhere) {
  Request request;
  request.verb = Verb::kIngest;
  request.collection = "sensors";
  request.dims = 2;
  request.coords = {1.0, 2.0};
  request.context.trace_id = 0x1234;
  request.context.origin_seconds = 99.5;
  const std::vector<uint8_t> bytes = EncodeRequest(request);
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeRequest({bytes.data(), len}).ok()) << "len " << len;
  }
  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeRequest(trailing).ok());
}

TEST(TraceHeaderTest, ResponseRoundTripsTraceIdAndServerSeconds) {
  Response response;
  response.verb = Verb::kIngest;
  response.epoch = 9;
  response.trace_id = 0xdeadbeefull;
  response.server_seconds = 0.0125;
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->trace_id, 0xdeadbeefull);
  EXPECT_DOUBLE_EQ(decoded->server_seconds, 0.0125);

  // Untraced responses omit the header entirely (old-client compat).
  Response plain;
  plain.verb = Verb::kIngest;
  plain.epoch = 9;
  const std::vector<uint8_t> plain_bytes = EncodeResponse(plain);
  EXPECT_EQ(plain_bytes[0] & kTraceHeaderFlag, 0);
  EXPECT_EQ(EncodeResponse(response).size(), plain_bytes.size() + 16);
}

TEST(TraceHeaderTest, TruncatedTracedResponsesRejected) {
  Response response;
  response.verb = Verb::kQuery;
  response.trace_id = 5;
  response.server_seconds = 1.0;
  response.query.kind = PointKind::kCore;
  const std::vector<uint8_t> bytes = EncodeResponse(response);
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeResponse({bytes.data(), len}).ok()) << "len " << len;
  }
}

TEST(TraceVerbTest, RequestRoundTripsFilters) {
  Request request;
  request.verb = Verb::kTrace;
  request.collection = "orders";  // doubles as the scope filter
  request.trace_name_filter = "wal_commit";
  request.trace_id_filter = 0x77ull;
  request.trace_limit = 128;
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->verb, Verb::kTrace);
  EXPECT_EQ(decoded->collection, "orders");
  EXPECT_EQ(decoded->trace_name_filter, "wal_commit");
  EXPECT_EQ(decoded->trace_id_filter, 0x77ull);
  EXPECT_EQ(decoded->trace_limit, 128u);
}

TEST(TraceVerbTest, EmptyFilterAllowsNoCollection) {
  Request request;
  request.verb = Verb::kTrace;
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->collection.empty());
  EXPECT_EQ(decoded->trace_id_filter, 0u);
}

TEST(TraceVerbTest, ResponseRoundTripsJsonAndCounters) {
  Response response;
  response.verb = Verb::kTrace;
  response.trace.json = "{\"traceEvents\":[]}";
  response.trace.spans_retained = 3;
  response.trace.spans_dropped = 11;
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->trace.json, response.trace.json);
  EXPECT_EQ(decoded->trace.spans_retained, 3u);
  EXPECT_EQ(decoded->trace.spans_dropped, 11u);

  const std::vector<uint8_t> bytes = EncodeResponse(response);
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeResponse({bytes.data(), len}).ok()) << "len " << len;
  }
}

TEST(HealthVerbTest, RequestRoundTrips) {
  Request request;
  request.verb = Verb::kHealth;
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->verb, Verb::kHealth);
}

TEST(HealthVerbTest, ResponseRoundTripsAllFields) {
  Response response;
  response.verb = Verb::kHealth;
  response.health.state = HealthState::kDegraded;
  response.health.recovery = RecoveryState::kDone;
  response.health.reason = "wal commit failures";
  response.health.collections = 4;
  response.health.rss_bytes = 123456789;
  response.health.open_fds = 42;
  response.health.threads = 17;
  response.health.uptime_seconds = 3600.5;
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->health.state, HealthState::kDegraded);
  EXPECT_EQ(decoded->health.recovery, RecoveryState::kDone);
  EXPECT_EQ(decoded->health.reason, "wal commit failures");
  EXPECT_EQ(decoded->health.collections, 4u);
  EXPECT_EQ(decoded->health.rss_bytes, 123456789u);
  EXPECT_EQ(decoded->health.open_fds, 42u);
  EXPECT_EQ(decoded->health.threads, 17u);
  EXPECT_DOUBLE_EQ(decoded->health.uptime_seconds, 3600.5);

  const std::vector<uint8_t> bytes = EncodeResponse(response);
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeResponse({bytes.data(), len}).ok()) << "len " << len;
  }
}

TEST(HealthVerbTest, RejectsBadStateBytes) {
  Response response;
  response.verb = Verb::kHealth;
  response.health.state = HealthState::kReady;
  response.health.recovery = RecoveryState::kNone;
  std::vector<uint8_t> bytes = EncodeResponse(response);
  // Layout: verb byte, status code, then the state and recovery enums;
  // out-of-range enum values must be rejected, not cast.
  std::vector<uint8_t> bad_state = bytes;
  bad_state[2] = 9;
  EXPECT_FALSE(DecodeResponse(bad_state).ok());
  std::vector<uint8_t> bad_recovery = bytes;
  bad_recovery[3] = 9;
  EXPECT_FALSE(DecodeResponse(bad_recovery).ok());
}

TEST(TraceIdGeneratorTest, NonzeroAndDistinct) {
  const uint64_t a = NextTraceId();
  const uint64_t b = NextTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace dbscout::service
