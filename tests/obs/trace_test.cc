#include "obs/trace.h"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "common/rng.h"
#include "core/dbscout.h"
#include "core/phases/phase_kernels.h"
#include "data/io.h"
#include "external/external_detector.h"
#include "testutil.h"

namespace dbscout::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON well-formedness checker + trace-event extractor. Enough of
// RFC 8259 to validate what TraceCollector emits (and to reject anything a
// trace viewer would choke on); not a general-purpose parser.

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
        return Object();
      case '[':
        return Array();
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

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (Peek() != ':') {
        return false;
      }
      ++pos_;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
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
        return false;  // raw control character
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

// Extracts the quoted value of `"key":"..."` occurrences per event object
// (the serializer emits one flat object per span, no nesting of these keys).
std::vector<std::string> ExtractStringField(const std::string& json,
                                            const std::string& key) {
  std::vector<std::string> values;
  const std::string needle = "\"" + key + "\":\"";
  size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    const size_t end = json.find('"', pos);
    if (end == std::string::npos) {
      break;
    }
    values.push_back(json.substr(pos, end - pos));
    pos = end + 1;
  }
  return values;
}

// ---------------------------------------------------------------------------

TEST(TraceCollectorTest, StartsEmpty) {
  TraceCollector trace;
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_TRUE(trace.Spans().empty());
  const std::string json = trace.ToChromeJson();
  EXPECT_EQ(json, "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
  EXPECT_TRUE(IsValidJson(json));
}

TEST(TraceCollectorTest, AddSpanEndingNowFillsFields) {
  TraceCollector trace;
  trace.AddSpanEndingNow("core_points", "sequential", 0.001, 123, 456);
  const auto spans = trace.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "core_points");
  EXPECT_EQ(spans[0].cat, "sequential");
  EXPECT_DOUBLE_EQ(spans[0].duration_seconds, 0.001);
  EXPECT_GE(spans[0].start_seconds, 0.0);
  EXPECT_EQ(spans[0].distance_computations, 123u);
  EXPECT_EQ(spans[0].records, 456u);
}

TEST(TraceCollectorTest, NegativeDurationClampsToZero) {
  TraceCollector trace;
  trace.AddSpanEndingNow("p", "c", -1.0, 0, 0);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_DOUBLE_EQ(trace.Spans()[0].duration_seconds, 0.0);
  EXPECT_GE(trace.Spans()[0].start_seconds, 0.0);
}

TEST(TraceCollectorTest, ChromeJsonSchema) {
  TraceCollector trace;
  TraceSpan span;
  span.name = "grid";
  span.cat = "external";
  span.start_seconds = 0.0025;
  span.duration_seconds = 0.0015;
  span.thread_id = 3;
  span.distance_computations = 42;
  span.records = 7;
  trace.AddSpan(span);
  const std::string json = trace.ToChromeJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"grid\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"external\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1500"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"distance_computations\":42"), std::string::npos);
  EXPECT_NE(json.find("\"records\":7"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(TraceCollectorTest, EscapesSpanNames) {
  TraceCollector trace;
  trace.AddSpanEndingNow("ph\"ase\\1\n", "c\tat", 0.0, 0, 0);
  const std::string json = trace.ToChromeJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("ph\\\"ase\\\\1\\n"), std::string::npos);
}

TEST(TraceCollectorTest, WriteChromeJsonRoundTrips) {
  TraceCollector trace;
  trace.AddSpanEndingNow("outliers", "shared_memory", 0.002, 9, 10);
  const std::string path = ::testing::TempDir() + "/trace_roundtrip.json";
  ASSERT_TRUE(trace.WriteChromeJson(path).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), trace.ToChromeJson());
}

TEST(TraceCollectorTest, WriteToBadPathFails) {
  TraceCollector trace;
  EXPECT_FALSE(
      trace.WriteChromeJson("/nonexistent-dir/definitely/not/here.json").ok());
}

// ---------------------------------------------------------------------------
// End-to-end: `dbscout detect --trace-out=FILE` must write Perfetto-loadable
// trace-event JSON with one span per recorded phase per engine. Sequential
// records each canonical phase exactly once; the parallel engine adds
// per-worker task spans on top; the external engine records phases once per
// stripe.

constexpr std::string_view kCanonicalPhases[] = {
    core::phases::kPhaseGrid, core::phases::kPhaseDenseCellMap,
    core::phases::kPhaseCorePoints, core::phases::kPhaseCoreCellMap,
    core::phases::kPhaseOutliers};

std::string WriteDetectInput() {
  static const std::string path = [] {
    // Per-process name: ctest runs each DetectTraceOutTest case in its own
    // process concurrently, and a shared file is rewritten under readers.
    const std::string p = ::testing::TempDir() + "/trace_detect_input_" +
                          std::to_string(::getpid()) + ".bin";
    Rng rng(7);
    const PointSet points =
        testing::ClusteredPoints(&rng, 800, 2, 3, /*noise_fraction=*/0.05);
    auto status = SavePointsBinary(p, points);
    EXPECT_TRUE(status.ok()) << status;
    return p;
  }();
  return path;
}

// Runs `dbscout detect --engine=<engine> --trace-out=<file>` and returns the
// written JSON text.
std::string DetectWithTrace(const std::string& engine,
                            const std::string& trace_path) {
  const std::vector<std::string> args = {
      "detect",           "--input=" + WriteDetectInput(),
      "--eps=0.4",        "--min-pts=6",
      "--engine=" + engine, "--trace-out=" + trace_path};
  std::vector<const char*> argv = {"dbscout"};
  for (const auto& arg : args) {
    argv.push_back(arg.c_str());
  }
  std::ostringstream out;
  std::ostringstream err;
  const int code =
      cli::RunCli(static_cast<int>(argv.size()), argv.data(), out, err);
  EXPECT_EQ(code, 0) << err.str();
  std::ifstream in(trace_path);
  EXPECT_TRUE(in.good()) << "trace file missing: " << trace_path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Spans of `json` as (cat, name) pairs (the serializer emits name then cat
// per event, in that order).
std::vector<std::pair<std::string, std::string>> SpanCatNames(
    const std::string& json) {
  const auto names = ExtractStringField(json, "name");
  const auto cats = ExtractStringField(json, "cat");
  EXPECT_EQ(names.size(), cats.size());
  std::vector<std::pair<std::string, std::string>> out;
  for (size_t i = 0; i < names.size() && i < cats.size(); ++i) {
    out.emplace_back(cats[i], names[i]);
  }
  return out;
}

size_t CountSpans(const std::vector<std::pair<std::string, std::string>>& spans,
                  std::string_view cat, std::string_view name) {
  return std::count(spans.begin(), spans.end(),
                    std::make_pair(std::string(cat), std::string(name)));
}

TEST(DetectTraceOutTest, SequentialEmitsOneSpanPerPhase) {
  const std::string json = DetectWithTrace(
      "sequential", ::testing::TempDir() + "/trace_seq.json");
  ASSERT_TRUE(IsValidJson(json)) << json;
  const auto spans = SpanCatNames(json);
  for (std::string_view phase : kCanonicalPhases) {
    EXPECT_EQ(CountSpans(spans, core::phases::kEngineSequential, phase), 1u)
        << phase;
  }
  EXPECT_EQ(spans.size(), std::size(kCanonicalPhases));
}

TEST(DetectTraceOutTest, ParallelEmitsPhaseAndWorkerTaskSpans) {
  const std::string json = DetectWithTrace(
      "parallel", ::testing::TempDir() + "/trace_par.json");
  ASSERT_TRUE(IsValidJson(json)) << json;
  const auto spans = SpanCatNames(json);
  for (std::string_view phase : kCanonicalPhases) {
    EXPECT_EQ(CountSpans(spans, core::phases::kEngineParallel, phase), 1u)
        << phase;
  }
  // The dataflow layer adds per-partition task spans on top of the phase
  // spans (one per partition per stage, from the worker that ran it).
  EXPECT_GT(spans.size(), std::size(kCanonicalPhases));
}

TEST(DetectTraceOutTest, ExternalEmitsSpansPerStripePhase) {
  const std::string json = DetectWithTrace(
      "external", ::testing::TempDir() + "/trace_ext.json");
  ASSERT_TRUE(IsValidJson(json)) << json;
  const auto spans = SpanCatNames(json);
  for (std::string_view phase : kCanonicalPhases) {
    EXPECT_GE(CountSpans(spans, core::phases::kEngineExternal, phase), 1u)
        << phase;
  }
}

TEST(DetectTraceOutTest, SharedMemoryEmitsOneSpanPerPhase) {
  const std::string json = DetectWithTrace(
      "shared", ::testing::TempDir() + "/trace_shared.json");
  ASSERT_TRUE(IsValidJson(json)) << json;
  const auto spans = SpanCatNames(json);
  for (std::string_view phase : kCanonicalPhases) {
    EXPECT_EQ(CountSpans(spans, core::phases::kEngineSharedMemory, phase), 1u)
        << phase;
  }
}

TEST(TraceCollectorTest, ConcurrentAddsAllLand) {
  TraceCollector trace;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;  // lint:allow(raw-thread) collector must accept foreign threads
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace] {
      for (int i = 0; i < kPerThread; ++i) {
        trace.AddSpanEndingNow("span", "stress", 1e-6, 1, 1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(trace.size(), static_cast<size_t>(kThreads) * kPerThread);
  EXPECT_TRUE(IsValidJson(trace.ToChromeJson()));
}

// ---------------------------------------------------------------------------
// Ring-buffer mode and request-scoped spans (trace ids, scopes, filters).

TEST(TraceRingTest, WrapsOverwritingOldestAndCountsDropped) {
  TraceCollector trace(4);
  EXPECT_EQ(trace.capacity(), 4u);
  for (int i = 0; i < 6; ++i) {
    char name[8];
    std::snprintf(name, sizeof(name), "s%d", i);
    trace.AddSpanEndingNow(name, "ring", 1e-6, 0, 0);
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 2u);
  const auto spans = trace.Spans();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first unwind: s0 and s1 were overwritten.
  EXPECT_EQ(spans[0].name, "s2");
  EXPECT_EQ(spans[3].name, "s5");
}

TEST(TraceRingTest, ExactlyFullDoesNotDrop) {
  TraceCollector trace(3);
  for (int i = 0; i < 3; ++i) {
    trace.AddSpanEndingNow("s", "ring", 0.0, 0, 0);
  }
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceRingTest, UnboundedNeverDrops) {
  TraceCollector trace;  // capacity 0 = unbounded
  for (int i = 0; i < 100; ++i) {
    trace.AddSpanEndingNow("s", "ring", 0.0, 0, 0);
  }
  EXPECT_EQ(trace.size(), 100u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TracedSpanTest, CarriesTraceIdAndScope) {
  TraceCollector trace;
  trace.AddTracedSpan("wal_commit", "storage", 0xabcdef0123456789ull, "orders",
                      0.002, 17);
  const auto spans = trace.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "wal_commit");
  EXPECT_EQ(spans[0].cat, "storage");
  EXPECT_EQ(spans[0].trace_id, 0xabcdef0123456789ull);
  EXPECT_EQ(spans[0].scope, "orders");
  EXPECT_DOUBLE_EQ(spans[0].duration_seconds, 0.002);
  EXPECT_EQ(spans[0].records, 17u);
  // The id shows up as a fixed-width hex string in the JSON args, so
  // Perfetto queries and grep treat it as one opaque token.
  const std::string json = trace.ToChromeJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"trace_id\":\"abcdef0123456789\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"scope\":\"orders\""), std::string::npos);
}

TEST(TraceFilterTest, SelectsByScopeNameIdAndLimit) {
  TraceCollector trace;
  trace.AddTracedSpan("queue_wait", "service", 0x11ull, "a", 0.001);
  trace.AddTracedSpan("shard_apply", "shard", 0x11ull, "a", 0.001);
  trace.AddTracedSpan("queue_wait", "service", 0x22ull, "b", 0.001);
  trace.AddSpanEndingNow("core_points", "sequential", 0.001, 0, 0);

  TraceFilter by_scope;
  by_scope.scope = "a";
  std::string json = trace.ToChromeJson(by_scope);
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_EQ(ExtractStringField(json, "name").size(), 2u);
  EXPECT_EQ(json.find("\"scope\":\"b\""), std::string::npos);

  TraceFilter by_name;
  by_name.name = "queue_wait";
  json = trace.ToChromeJson(by_name);
  EXPECT_EQ(ExtractStringField(json, "name").size(), 2u);
  EXPECT_EQ(json.find("shard_apply"), std::string::npos);

  // `name` also matches the category, so one filter can select a layer.
  TraceFilter by_cat;
  by_cat.name = "service";
  json = trace.ToChromeJson(by_cat);
  EXPECT_EQ(ExtractStringField(json, "name").size(), 2u);

  TraceFilter by_id;
  by_id.trace_id = 0x22ull;
  json = trace.ToChromeJson(by_id);
  const auto names = ExtractStringField(json, "name");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "queue_wait");
  EXPECT_NE(json.find("\"trace_id\":\"0000000000000022\""), std::string::npos);

  TraceFilter by_limit;
  by_limit.limit = 1;
  json = trace.ToChromeJson(by_limit);
  const auto last = ExtractStringField(json, "name");
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0], "core_points");  // most recent span wins

  // Filters compose: scope AND name must both match.
  TraceFilter both;
  both.scope = "a";
  both.name = "shard_apply";
  json = trace.ToChromeJson(both);
  EXPECT_EQ(ExtractStringField(json, "name").size(), 1u);
}

TEST(TraceFilterTest, DefaultFilterKeepsEverything) {
  TraceCollector trace;
  trace.AddTracedSpan("a", "c", 1, "s", 0.0);
  trace.AddSpanEndingNow("b", "c", 0.0, 0, 0);
  EXPECT_EQ(trace.ToChromeJson(TraceFilter{}), trace.ToChromeJson());
}

TEST(TracedSpanTest, UntracedSpansOmitTraceArgs) {
  TraceCollector trace;
  trace.AddSpanEndingNow("core_points", "sequential", 0.001, 1, 2);
  const std::string json = trace.ToChromeJson();
  EXPECT_EQ(json.find("trace_id"), std::string::npos) << json;
  EXPECT_EQ(json.find("scope"), std::string::npos) << json;
}

}  // namespace
}  // namespace dbscout::obs
