#ifndef DBSCOUT_CORE_PHASES_PHASE_RECORDER_H_
#define DBSCOUT_CORE_PHASES_PHASE_RECORDER_H_

#include <atomic>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/detection.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dbscout::core::phases {

/// The one place per-phase stats are assembled. Every engine reports its
/// PhaseStats through a PhaseRecorder so phase names, counter semantics,
/// and ordering are identical across engines (and therefore comparable in
/// tests and benches).
///
/// Engines record through one method, Accumulate(name, seconds, ...): it
/// merges into the row named `name`, creating it in first-call order. The
/// in-memory engines visit each phase once; the out-of-core engine revisits
/// phases 1-5 once per stripe, and each of its rows merges every visit.
///
/// A recorder may additionally be attached to the observability layer
/// (AttachObservability): every Accumulate then publishes one
/// histogram observation + two counter increments into the
/// metrics registry and, when a TraceCollector is attached, one span.
/// Publication happens at phase/stripe granularity — a handful of times
/// per detection, never per point — so its cost is invisible next to the
/// phases themselves.
class PhaseRecorder {
 public:
  PhaseRecorder() = default;

  /// Attaches the observability layer. `engine` labels the metrics and
  /// categorizes the trace spans ("sequential", "external", ...);
  /// `registry` may be null to skip metrics, `trace` may be null to skip
  /// spans. Rows recorded before this call are not retro-published.
  void AttachObservability(std::string_view engine, obs::Registry* registry,
                           obs::TraceCollector* trace) {
    engine_ = std::string(engine);
    registry_ = registry;
    trace_ = trace;
  }

  /// Merges into the row named `name` (appending a zero row first if it
  /// does not exist yet).
  void Accumulate(std::string_view name, double seconds, uint64_t distances,
                  uint64_t records) {
    PhaseStats& row = RowFor(name);
    row.seconds += seconds;
    row.distance_computations += distances;
    row.records += records;
    Publish(name, seconds, distances, records);
  }

  const std::vector<PhaseStats>& phases() const { return phases_; }

  /// Moves the rows out (engines assign this to Detection::phases).
  std::vector<PhaseStats> Take() { return std::move(phases_); }

 private:
  PhaseStats& RowFor(std::string_view name) {
    for (PhaseStats& row : phases_) {
      if (row.name == name) {
        return row;
      }
    }
    phases_.push_back({std::string(name), 0.0, 0, 0});
    return phases_.back();
  }

  void Publish(std::string_view name, double seconds, uint64_t distances,
               uint64_t records) {
    if (trace_ != nullptr) {
      trace_->AddSpanEndingNow(name, engine_, seconds, distances, records);
    }
    if (registry_ != nullptr) {
      obs::Labels labels{{"engine", engine_}, {"phase", std::string(name)}};
      registry_
          ->GetHistogram("dbscout_phase_seconds",
                         "Wall seconds per detection phase",
                         obs::HistogramLayout::Latency(), labels)
          ->Observe(seconds);
      registry_
          ->GetCounter("dbscout_phase_distance_computations_total",
                       "Point-pair distance computations per phase", labels)
          ->Increment(distances);
      registry_
          ->GetCounter("dbscout_phase_records_total",
                       "Records processed per phase", labels)
          ->Increment(records);
    }
  }

  std::vector<PhaseStats> phases_;
  std::string engine_;
  obs::Registry* registry_ = nullptr;
  obs::TraceCollector* trace_ = nullptr;
};

/// RAII phase scope with thread-safe counters, for engines whose phase
/// work runs as concurrent tasks (the dataflow engine): constructed at
/// phase entry, records the wall time since then on destruction.
class ScopedPhase {
 public:
  ScopedPhase(PhaseRecorder* recorder, std::string_view name)
      : recorder_(recorder), name_(name) {}
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase() {
    recorder_->Accumulate(name_, timer_.ElapsedSeconds(), distances.load(),
                          records.load());
  }

  std::atomic<uint64_t> distances{0};
  std::atomic<uint64_t> records{0};

 private:
  PhaseRecorder* recorder_;
  std::string name_;
  WallTimer timer_;
};

}  // namespace dbscout::core::phases

#endif  // DBSCOUT_CORE_PHASES_PHASE_RECORDER_H_
