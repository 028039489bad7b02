#ifndef DBSCOUT_OBS_TRACE_H_
#define DBSCOUT_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"  // CurrentThreadId
#include "common/thread_annotations.h"
#include "common/status.h"
#include "common/timer.h"

namespace dbscout::obs {

/// One completed span: a named slice of work on one thread. Times are
/// seconds relative to the owning TraceCollector's origin (its
/// construction), which keeps spans from different engines on one shared
/// timeline.
struct TraceSpan {
  std::string name;  // phase or operation, e.g. "core_points"
  std::string cat;   // category: engine name, e.g. "external"
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  uint32_t thread_id = 0;  // dense dbscout thread id
  uint64_t distance_computations = 0;
  uint64_t records = 0;
  /// Request trace id that this span belongs to; 0 = not request-scoped
  /// (engine phase spans, whole apply passes). Links the decode /
  /// queue-wait / detector-apply / wal-commit / publish spans of one request
  /// into one trace.
  uint64_t trace_id = 0;
  /// Scope label for dump-time filtering: the collection name for
  /// service-side spans, empty for engine spans.
  std::string scope;
};

/// Selects a subset of spans on dump. Default-constructed = everything.
struct TraceFilter {
  std::string scope;    // exact match on TraceSpan::scope; empty = all
  std::string name;     // exact match on TraceSpan::name or cat; empty = all
  uint64_t trace_id = 0;  // exact match; 0 = all
  size_t limit = 0;     // keep only the most recent N spans; 0 = all
};

/// Collects timestamped spans from the detection engines and the service
/// apply loop, and serializes them to Chrome trace-event JSON (loadable in
/// chrome://tracing and Perfetto).
///
/// Span emission happens at phase / stripe / apply-pass / request
/// granularity — a handful of events per detection or request, never per
/// point — so a mutex-guarded buffer is the right tool (contrast with the
/// wait-free metric shards, which ARE incremented on hot paths).
///
/// With a nonzero `capacity` the collector is a ring: once full, each new
/// span overwrites the oldest and `dropped()` counts the overwritten ones.
/// This is what a long-lived server wants — the TRACE verb dumps the live
/// tail without the buffer growing without bound. Capacity 0 (the default,
/// used by the batch CLI) keeps every span for the exit-time --trace-out.
class TraceCollector {
 public:
  TraceCollector() = default;
  explicit TraceCollector(size_t capacity) : capacity_(capacity) {}
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Seconds since this collector was constructed (the trace origin).
  double NowSeconds() const { return origin_.ElapsedSeconds(); }

  /// Records a fully-specified span.
  void AddSpan(TraceSpan span);

  /// Convenience: a span of `duration_seconds` that ends now, attributed
  /// to the calling thread.
  void AddSpanEndingNow(std::string_view name, std::string_view cat,
                        double duration_seconds, uint64_t distances,
                        uint64_t records);

  /// Convenience for request-scoped service spans: a span of
  /// `duration_seconds` ending now, tagged with the request's trace id and
  /// a scope (collection name; empty for service-wide spans).
  void AddTracedSpan(std::string_view name, std::string_view cat,
                     uint64_t trace_id, std::string_view scope,
                     double duration_seconds, uint64_t records = 0);

  /// All retained spans, oldest first (ring order is unwound).
  std::vector<TraceSpan> Spans() const;
  size_t size() const;

  /// Spans overwritten by ring wraparound since construction.
  uint64_t dropped() const;

  size_t capacity() const { return capacity_; }

  /// Chrome trace-event JSON: {"traceEvents":[{"name":...,"cat":...,
  /// "ph":"X","ts":microseconds,"dur":microseconds,"pid":...,"tid":...,
  /// "args":{...}}, ...]}.
  std::string ToChromeJson() const;

  /// Chrome trace-event JSON restricted to the spans selected by
  /// `filter`. The TRACE verb uses this so a busy multi-collection server
  /// returns one collection's (or one request's) spans, not megabytes.
  std::string ToChromeJson(const TraceFilter& filter) const;

  /// Writes ToChromeJson() to `path`.
  Status WriteChromeJson(const std::string& path) const;

 private:
  const size_t capacity_ = 0;  // 0 = unbounded
  WallTimer origin_;
  mutable Mutex mu_;
  std::vector<TraceSpan> spans_ DBSCOUT_GUARDED_BY(mu_);
  size_t next_slot_ DBSCOUT_GUARDED_BY(mu_) = 0;  // ring write cursor
  uint64_t dropped_ DBSCOUT_GUARDED_BY(mu_) = 0;
};

}  // namespace dbscout::obs

#endif  // DBSCOUT_OBS_TRACE_H_
