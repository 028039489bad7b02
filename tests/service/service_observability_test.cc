// Observability contract of the detection service: one stamped INGEST on
// a durable collection must come back as one *connected* trace — every
// layer's span (frame decode, admission queue wait, detector apply,
// snapshot freeze, WAL group commit, snapshot publish) carrying the same
// trace id — plus the slow-request log, the HEALTH verb's readiness
// semantics across deferred crash recovery, the TRACE verb's filtered
// dumps, and the latency-quantile rows in STATS.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/handle.h"
#include "service/server.h"
#include "service/service.h"
#include "testutil.h"

namespace dbscout::service {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON well-formedness checker (same contract
// as the one in tests/obs/trace_test.cc): enough of RFC 8259 to reject
// anything a trace viewer would choke on.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Validate() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{':
        return Container('{', '}', /*object=*/true);
      case '[':
        return Container('[', ']', /*object=*/false);
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Container(char open, char close, bool object) {
    ++pos_;  // consume `open`
    (void)open;
    SkipWs();
    if (Peek() == close) {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (object) {
        if (!String()) {
          return false;
        }
        SkipWs();
        if (Peek() != ':') {
          return false;
        }
        ++pos_;
        SkipWs();
      }
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == close) {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) {
          return false;
        }
        const char esc = s_[pos_];
        if (esc == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= s_.size() || !std::isxdigit(s_[pos_ + i])) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    while (pos_ < s_.size() &&
           (std::isdigit(s_[pos_]) || s_[pos_] == '.' || s_[pos_] == 'e' ||
            s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const std::string& word) {
    if (s_.compare(pos_, word.size(), word) != 0) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(s_[pos_])) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

bool IsValidJson(const std::string& text) {
  return JsonChecker(text).Validate();
}

// ---------------------------------------------------------------------------

Request IngestRequest(const std::string& collection, uint16_t dims,
                      std::vector<double> coords, uint64_t trace_id = 0) {
  Request request;
  request.verb = Verb::kIngest;
  request.collection = collection;
  request.dims = dims;
  request.coords = std::move(coords);
  request.context.trace_id = trace_id;
  return request;
}

Request HealthRequest() {
  Request request;
  request.verb = Verb::kHealth;
  return request;
}

std::vector<double> Flatten(const PointSet& points) {
  std::vector<double> coords;
  for (size_t i = 0; i < points.size(); ++i) {
    for (double v : points[i]) {
      coords.push_back(v);
    }
  }
  return coords;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

size_t CountSpans(const std::vector<obs::TraceSpan>& spans, uint64_t id,
                  const std::string& name) {
  size_t n = 0;
  for (const auto& span : spans) {
    if (span.trace_id == id && span.name == name) {
      ++n;
    }
  }
  return n;
}

// A single stamped INGEST over TCP against a durable collection produces
// one trace whose spans cover every layer — frame decode, queue wait,
// detector apply, snapshot freeze, WAL commit, snapshot publish and the
// request itself — all linked by the request's id, and the TRACE dump of
// that id is schema-valid Chrome JSON.
TEST(ObservabilityTest, DurableIngestYieldsOneConnectedTrace) {
  const size_t dims = 2;
  ServiceOptions options;
  options.params.eps = 1.0;
  options.params.min_pts = 4;
  options.data_dir = FreshDir("obs_connected_trace");
  obs::Registry registry;
  options.registry = &registry;
  obs::TraceCollector trace;
  options.trace = &trace;
  DetectionService service(options);
  ASSERT_TRUE(service.recovery_status().ok());
  auto server = Server::Start(&service, ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status();
  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status();

  Rng rng(20260809);
  const uint64_t id = 0x0b5c0a7d5eedull;
  auto traced = client->Call(IngestRequest(
      "c", dims, Flatten(testing::UniformPoints(&rng, 120, dims, 0.0, 12.0)),
      id));
  ASSERT_TRUE(traced.ok()) << traced.status();
  ASSERT_TRUE(traced->status.ok()) << traced->status;
  EXPECT_EQ(traced->trace_id, id);  // stamped request: id echoed
  EXPECT_GT(traced->server_seconds, 0.0);

  const auto spans = trace.Spans();
  for (const char* name :
       {"frame_decode", "queue_wait", "detector_apply", "snapshot_freeze",
        "wal_commit", "snapshot_publish"}) {
    EXPECT_EQ(CountSpans(spans, id, name), 1u) << name;
  }
  // The root request span is named after the verb.
  size_t roots = 0;
  for (const auto& span : spans) {
    if (span.trace_id == id && span.cat == "request") {
      ++roots;
      EXPECT_EQ(span.name, "ingest");
    }
  }
  EXPECT_EQ(roots, 1u);
  // The freeze span also feeds the freeze histogram.
  EXPECT_GE(registry.GetHistogram("dbscout_snapshot_freeze_seconds", "")
                ->Snap()
                .count,
            1u);
  // Every one of the request's spans is scoped to its collection.
  for (const auto& span : spans) {
    if (span.trace_id == id && span.name != "apply_pass") {
      EXPECT_EQ(span.scope, "c") << span.name;
    }
  }

  // The dump of exactly this trace is schema-valid and self-consistent.
  obs::TraceFilter filter;
  filter.trace_id = id;
  const std::string json = trace.ToChromeJson(filter);
  EXPECT_TRUE(IsValidJson(json)) << json;
  const std::string hex =
      StrFormat("%016llx", static_cast<unsigned long long>(id));
  EXPECT_NE(json.find("\"trace_id\":\"" + hex + "\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"detector_apply\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"wal_commit\""), std::string::npos);

  (*server)->Stop();
  service.Stop();
}

TEST(ObservabilityTest, UnstampedRequestGetsServerIdButNoEcho) {
  ServiceOptions options;
  options.params.eps = 1.0;
  options.params.min_pts = 4;
  obs::Registry registry;
  options.registry = &registry;
  obs::TraceCollector trace;
  options.trace = &trace;
  DetectionService service(options);
  ServiceHandle handle(&service);

  auto response =
      handle.Call(IngestRequest("c", 2, {0.0, 0.0, 0.1, 0.1}));
  ASSERT_TRUE(response.ok() && response->status.ok());
  // The server self-stamped a fresh id for its own spans but must not
  // echo it: the reply header would break pre-trace clients.
  EXPECT_EQ(response->trace_id, 0u);
  const auto spans = trace.Spans();
  uint64_t stamped = 0;
  for (const auto& span : spans) {
    if (span.name == "ingest") {
      stamped = span.trace_id;
    }
  }
  EXPECT_NE(stamped, 0u);
  EXPECT_GE(CountSpans(spans, stamped, "queue_wait"), 1u);
  service.Stop();
}

TEST(ObservabilityTest, NoCollectorMeansNoSpansAndNoStamping) {
  ServiceOptions options;
  options.params.eps = 1.0;
  options.params.min_pts = 4;
  obs::Registry registry;
  options.registry = &registry;
  DetectionService service(options);
  ServiceHandle handle(&service);
  auto response = handle.Call(IngestRequest("c", 2, {0.0, 0.0}));
  ASSERT_TRUE(response.ok() && response->status.ok());
  EXPECT_EQ(response->trace_id, 0u);
  service.Stop();
}

TEST(ObservabilityTest, SlowRequestLogCarriesTraceId) {
  ServiceOptions options;
  options.params.eps = 1.0;
  options.params.min_pts = 4;
  options.slow_request_seconds = 0.0;  // every request is "slow"
  obs::Registry registry;
  options.registry = &registry;
  obs::TraceCollector trace;
  options.trace = &trace;
  DetectionService service(options);
  ServiceHandle handle(&service);

  std::mutex mu;
  std::vector<LogRecord> records;
  SetLogSink([&](const LogRecord& r) {
    std::lock_guard<std::mutex> lock(mu);
    records.push_back(r);
  });
  const uint64_t id = 0x51000000f00dull;
  auto response =
      handle.Call(IngestRequest("c", 2, {0.0, 0.0, 0.1, 0.1}, id));
  SetLogSink(nullptr);
  ASSERT_TRUE(response.ok() && response->status.ok());

  const std::string hex =
      StrFormat("%016llx", static_cast<unsigned long long>(id));
  bool found = false;
  std::lock_guard<std::mutex> lock(mu);
  for (const auto& r : records) {
    if (r.message.find("slow request") != std::string::npos &&
        r.message.find("trace=" + hex) != std::string::npos &&
        r.message.find("verb=ingest") != std::string::npos &&
        r.message.find("collection=c") != std::string::npos) {
      EXPECT_EQ(r.level, LogLevel::kWarning);
      found = true;
    }
  }
  EXPECT_TRUE(found) << records.size() << " records, none matched";
  service.Stop();
}

TEST(ObservabilityTest, NegativeThresholdDisablesSlowLog) {
  ServiceOptions options;
  options.params.eps = 1.0;
  options.params.min_pts = 4;
  options.slow_request_seconds = -1.0;  // the default: disabled
  obs::Registry registry;
  options.registry = &registry;
  DetectionService service(options);
  ServiceHandle handle(&service);

  std::mutex mu;
  size_t slow_lines = 0;
  SetLogSink([&](const LogRecord& r) {
    std::lock_guard<std::mutex> lock(mu);
    if (r.message.find("slow request") != std::string::npos) {
      ++slow_lines;
    }
  });
  auto response = handle.Call(IngestRequest("c", 2, {0.0, 0.0}));
  SetLogSink(nullptr);
  ASSERT_TRUE(response.ok() && response->status.ok());
  EXPECT_EQ(slow_lines, 0u);
  service.Stop();
}

TEST(ObservabilityTest, TraceVerbFiltersByScopeNameAndId) {
  ServiceOptions options;
  options.params.eps = 1.0;
  options.params.min_pts = 4;
  obs::Registry registry;
  options.registry = &registry;
  obs::TraceCollector trace;
  options.trace = &trace;
  DetectionService service(options);
  ServiceHandle handle(&service);

  const uint64_t id_a = 0xaaaaull;
  const uint64_t id_b = 0xbbbbull;
  ASSERT_TRUE(
      handle.Call(IngestRequest("a", 2, {0.0, 0.0, 0.1, 0.1}, id_a))->status.ok());
  ASSERT_TRUE(
      handle.Call(IngestRequest("b", 2, {5.0, 5.0, 5.1, 5.1}, id_b))->status.ok());

  // Scope filter: only collection "a" spans come back.
  Request dump;
  dump.verb = Verb::kTrace;
  dump.collection = "a";
  auto scoped = handle.Call(dump);
  ASSERT_TRUE(scoped.ok() && scoped->status.ok()) << scoped->status;
  EXPECT_TRUE(IsValidJson(scoped->trace.json)) << scoped->trace.json;
  EXPECT_NE(scoped->trace.json.find("\"scope\":\"a\""), std::string::npos);
  EXPECT_EQ(scoped->trace.json.find("\"scope\":\"b\""), std::string::npos);
  EXPECT_GT(scoped->trace.spans_retained, 0u);
  EXPECT_EQ(scoped->trace.spans_dropped, 0u);

  // Trace-id filter isolates one request across collections.
  Request by_id;
  by_id.verb = Verb::kTrace;
  by_id.trace_id_filter = id_b;
  auto only_b = handle.Call(by_id);
  ASSERT_TRUE(only_b.ok() && only_b->status.ok());
  EXPECT_EQ(only_b->trace.json.find("\"scope\":\"a\""), std::string::npos);
  EXPECT_NE(only_b->trace.json.find("\"scope\":\"b\""), std::string::npos);

  // Span-name filter: just the WAL-free in-memory service still emits
  // queue_wait; asking for it returns nothing else.
  Request by_name;
  by_name.verb = Verb::kTrace;
  by_name.trace_name_filter = "queue_wait";
  auto waits = handle.Call(by_name);
  ASSERT_TRUE(waits.ok() && waits->status.ok());
  EXPECT_NE(waits->trace.json.find("\"name\":\"queue_wait\""),
            std::string::npos);
  EXPECT_EQ(waits->trace.json.find("\"name\":\"ingest\""), std::string::npos);

  // Limit keeps only the most recent N spans.
  Request limited;
  limited.verb = Verb::kTrace;
  limited.trace_limit = 1;
  auto last = handle.Call(limited);
  ASSERT_TRUE(last.ok() && last->status.ok());
  size_t events = 0;
  for (size_t pos = 0;
       (pos = last->trace.json.find("\"ph\":\"X\"", pos)) != std::string::npos;
       ++pos) {
    ++events;
  }
  EXPECT_EQ(events, 1u);
  service.Stop();
}

TEST(ObservabilityTest, TraceVerbWithoutCollectorFails) {
  ServiceOptions options;
  options.params.eps = 1.0;
  options.params.min_pts = 4;
  obs::Registry registry;
  options.registry = &registry;
  DetectionService service(options);
  ServiceHandle handle(&service);
  Request dump;
  dump.verb = Verb::kTrace;
  auto response = handle.Call(dump);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status.code(), StatusCode::kFailedPrecondition);
  service.Stop();
}

TEST(ObservabilityTest, HealthNotReadyUntilDeferredRecoveryRuns) {
  const std::string dir = FreshDir("obs_health_flip");
  ServiceOptions options;
  options.params.eps = 1.0;
  options.params.min_pts = 4;
  options.data_dir = dir;
  {
    obs::Registry registry;
    options.registry = &registry;
    DetectionService service(options);
    ASSERT_TRUE(service.recovery_status().ok());
    ServiceHandle handle(&service);
    ASSERT_TRUE(handle.Call(IngestRequest("c", 2, {0.0, 0.0, 0.1, 0.1}))
                    ->status.ok());
    service.Stop();
  }

  // Second run over the same directory, recovery deferred: the service
  // must answer HEALTH (not-ready) and refuse collection verbs while the
  // WAL is conceptually still replaying.
  obs::Registry registry;
  options.registry = &registry;
  options.defer_recovery = true;
  DetectionService service(options);
  ServiceHandle handle(&service);

  auto health = handle.Call(HealthRequest());
  ASSERT_TRUE(health.ok() && health->status.ok()) << health->status;
  EXPECT_EQ(health->health.state, HealthState::kNotReady);
  EXPECT_EQ(health->health.recovery, RecoveryState::kRecovering);
  EXPECT_FALSE(health->health.reason.empty());

  auto refused = handle.Call(IngestRequest("c", 2, {1.0, 1.0}));
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->status.code(), StatusCode::kUnavailable);

  service.RunDeferredRecovery();
  ASSERT_TRUE(service.recovery_status().ok()) << service.recovery_status();

  health = handle.Call(HealthRequest());
  ASSERT_TRUE(health.ok() && health->status.ok());
  EXPECT_EQ(health->health.state, HealthState::kReady);
  EXPECT_EQ(health->health.recovery, RecoveryState::kDone);
  EXPECT_EQ(health->health.collections, 1u);  // recovered from the WAL

  auto accepted = handle.Call(IngestRequest("c", 2, {1.0, 1.0}));
  ASSERT_TRUE(accepted.ok());
  EXPECT_TRUE(accepted->status.ok()) << accepted->status;
  service.Stop();
}

TEST(ObservabilityTest, HealthReportsProcessSelfGauges) {
  ServiceOptions options;
  options.params.eps = 1.0;
  options.params.min_pts = 4;
  obs::Registry registry;
  options.registry = &registry;
  DetectionService service(options);
  ServiceHandle handle(&service);
  auto health = handle.Call(HealthRequest());
  ASSERT_TRUE(health.ok() && health->status.ok());
  EXPECT_EQ(health->health.state, HealthState::kReady);
  EXPECT_EQ(health->health.recovery, RecoveryState::kNone);
  EXPECT_GE(health->health.uptime_seconds, 0.0);
#if defined(__linux__)
  EXPECT_GT(health->health.rss_bytes, 0u);
  EXPECT_GT(health->health.open_fds, 0u);
  EXPECT_GT(health->health.threads, 0u);
#endif
  service.Stop();
}

TEST(ObservabilityTest, StatsCarriesLatencyQuantileRows) {
  ServiceOptions options;
  options.params.eps = 1.0;
  options.params.min_pts = 4;
  obs::Registry registry;
  options.registry = &registry;
  DetectionService service(options);
  ServiceHandle handle(&service);
  ASSERT_TRUE(
      handle.Call(IngestRequest("c", 2, {0.0, 0.0, 0.1, 0.1}))->status.ok());

  Request stats;
  stats.verb = Verb::kStats;
  stats.collection = "c";
  auto answer = handle.Call(stats);
  ASSERT_TRUE(answer.ok() && answer->status.ok());
  bool saw_ingest = false;
  for (const auto& row : answer->stats.latencies) {
    EXPECT_GT(row.count, 0u) << row.verb;  // zero-count verbs are omitted
    EXPECT_LE(row.p50_seconds, row.p99_seconds) << row.verb;
    EXPECT_LE(row.p99_seconds, row.p999_seconds) << row.verb;
    if (row.verb == "ingest") {
      saw_ingest = true;
      EXPECT_EQ(row.count, 1u);
      EXPECT_GT(row.p50_seconds, 0.0);
    }
  }
  EXPECT_TRUE(saw_ingest);
  service.Stop();
}

TEST(ObservabilityTest, RequestHistogramExemplarsCarryTraceIds) {
  ServiceOptions options;
  options.params.eps = 1.0;
  options.params.min_pts = 4;
  obs::Registry registry;
  options.registry = &registry;
  obs::TraceCollector trace;
  options.trace = &trace;
  DetectionService service(options);
  ServiceHandle handle(&service);
  const uint64_t id = 0xe9e3a91ull;
  ASSERT_TRUE(
      handle.Call(IngestRequest("c", 2, {0.0, 0.0, 0.1, 0.1}, id))->status.ok());

  Request metrics;
  metrics.verb = Verb::kMetrics;
  auto answer = handle.Call(metrics);
  ASSERT_TRUE(answer.ok() && answer->status.ok());
  const std::string hex =
      StrFormat("%016llx", static_cast<unsigned long long>(id));
  EXPECT_NE(answer->metrics.text.find("# {trace_id=\"" + hex + "\"}"),
            std::string::npos)
      << answer->metrics.text.substr(0, 2000);
  service.Stop();
}

}  // namespace
}  // namespace dbscout::service
