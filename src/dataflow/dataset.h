#ifndef DBSCOUT_DATAFLOW_DATASET_H_
#define DBSCOUT_DATAFLOW_DATASET_H_

#include <atomic>
#include <cassert>
#include <memory>
#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "dataflow/context.h"

namespace dbscout::dataflow {

/// A read-only value shared by every task, the analogue of a Spark broadcast
/// variable: construct once on the driver, capture by value in closures.
template <typename T>
class Broadcast {
 public:
  Broadcast() = default;
  explicit Broadcast(T value)
      : value_(std::make_shared<const T>(std::move(value))) {}

  const T& operator*() const { return *value_; }
  const T* operator->() const { return value_.get(); }
  const T* get() const { return value_.get(); }

 private:
  std::shared_ptr<const T> value_;
};

/// An immutable, partitioned, in-memory dataset — the engine's analogue of a
/// Spark RDD. Transformations evaluate eagerly, run one task per partition
/// on the context's thread pool, and record StageMetrics on the context.
/// Datasets share partition storage via shared_ptr, so copying a Dataset is
/// cheap and transformations never mutate their input.
template <typename T>
class Dataset {
 public:
  using Partitions = std::vector<std::vector<T>>;

  Dataset() : ctx_(nullptr), parts_(std::make_shared<const Partitions>()) {}

  /// Distributes `values` into `num_partitions` contiguous slices
  /// (0 = context default).
  static Dataset FromVector(ExecutionContext* ctx, std::vector<T> values,
                            size_t num_partitions = 0) {
    const size_t parts =
        num_partitions == 0 ? ctx->default_partitions() : num_partitions;
    Partitions partitions(parts);
    const size_t n = values.size();
    const size_t chunk = (n + parts - 1) / std::max<size_t>(parts, 1);
    for (size_t p = 0; p < parts; ++p) {
      const size_t begin = std::min(n, p * chunk);
      const size_t end = std::min(n, begin + chunk);
      partitions[p].assign(std::make_move_iterator(values.begin() + begin),
                           std::make_move_iterator(values.begin() + end));
    }
    return Dataset(ctx, std::move(partitions));
  }

  /// Wraps existing partitions verbatim.
  static Dataset FromPartitions(ExecutionContext* ctx, Partitions partitions) {
    return Dataset(ctx, std::move(partitions));
  }

  /// Generates values 0..n-1 as a dataset of indices (convenient for
  /// point-id datasets).
  template <typename U = T>
  static Dataset Iota(ExecutionContext* ctx, U n, size_t num_partitions = 0) {
    static_assert(std::is_integral_v<U>);
    std::vector<T> values(static_cast<size_t>(n));
    std::iota(values.begin(), values.end(), T{0});
    return FromVector(ctx, std::move(values), num_partitions);
  }

  ExecutionContext* context() const { return ctx_; }
  size_t num_partitions() const { return parts_->size(); }
  const std::vector<T>& partition(size_t i) const { return (*parts_)[i]; }

  /// Total number of records across partitions.
  size_t Count() const {
    size_t n = 0;
    for (const auto& p : *parts_) n += p.size();
    return n;
  }

  /// Concatenates all partitions on the driver.
  std::vector<T> Collect() const {
    std::vector<T> out;
    out.reserve(Count());
    for (const auto& p : *parts_) {
      out.insert(out.end(), p.begin(), p.end());
    }
    return out;
  }

  /// MAP: one output record per input record.
  template <typename F>
  auto Map(F fn, const char* name = "Map") const {
    using U = std::decay_t<decltype(fn(std::declval<const T&>()))>;
    return TransformPartitions<U>(
        name, [&fn](const std::vector<T>& in, std::vector<U>* out) {
          out->reserve(in.size());
          for (const T& record : in) {
            out->push_back(fn(record));
          }
        });
  }

  /// FLATMAP: fn(record, out) appends zero or more output records.
  template <typename U, typename F>
  Dataset<U> FlatMap(F fn, const char* name = "FlatMap") const {
    return TransformPartitions<U>(
        name, [&fn](const std::vector<T>& in, std::vector<U>* out) {
          for (const T& record : in) {
            fn(record, out);
          }
        });
  }

  /// FILTER: keeps records where pred(record) is true.
  template <typename F>
  Dataset<T> Filter(F pred, const char* name = "Filter") const {
    return TransformPartitions<T>(
        name, [&pred](const std::vector<T>& in, std::vector<T>* out) {
          for (const T& record : in) {
            if (pred(record)) {
              out->push_back(record);
            }
          }
        });
  }

  /// UNION: concatenation of partition lists (no shuffle, like Spark).
  Dataset<T> Union(const Dataset<T>& other, const char* name = "Union") const {
    WallTimer timer;
    Partitions out = *parts_;
    out.insert(out.end(), other.parts_->begin(), other.parts_->end());
    Dataset result(ctx_, std::move(out));
    StageMetrics m;
    m.name = name;
    m.seconds = timer.ElapsedSeconds();
    m.records_in = Count() + other.Count();
    m.records_out = m.records_in;
    ctx_->RecordStage(std::move(m));
    return result;
  }

  /// Driver-side sequential iteration (the FOREACH of Algorithm 4).
  template <typename F>
  void ForEach(F fn) const {
    for (const auto& p : *parts_) {
      for (const T& record : p) {
        fn(record);
      }
    }
  }

  /// Runs `body(partition, out_partition)` for every partition in parallel,
  /// records a stage, and wraps the outputs. Exposed for composite
  /// operations (shuffles in pair_ops.h).
  template <typename U, typename Body>
  Dataset<U> TransformPartitions(const char* name, Body body) const {
    assert(ctx_ != nullptr);
    WallTimer timer;
    typename Dataset<U>::Partitions out(parts_->size());
    std::atomic<uint64_t> in_records{0};
    std::atomic<uint64_t> out_records{0};
    obs::TraceCollector* const trace = ctx_->trace();
    RunTasks(&ctx_->pool(), parts_->size(), [&](size_t p) {
      const std::vector<T>& in = (*parts_)[p];
      if (trace != nullptr) {
        // Per-worker task span: one per partition, attributed to the
        // worker thread that claimed it.
        WallTimer task_timer;
        body(in, &out[p]);
        trace->AddSpanEndingNow(name, ctx_->trace_category(),
                                task_timer.ElapsedSeconds(), 0, in.size());
      } else {
        body(in, &out[p]);
      }
      in_records.fetch_add(in.size(), std::memory_order_relaxed);
      out_records.fetch_add(out[p].size(), std::memory_order_relaxed);
    });
    Dataset<U> result = Dataset<U>::FromPartitions(ctx_, std::move(out));
    StageMetrics m;
    m.name = name;
    m.seconds = timer.ElapsedSeconds();
    m.records_in = in_records.load();
    m.records_out = out_records.load();
    ctx_->RecordStage(std::move(m));
    return result;
  }

 private:
  Dataset(ExecutionContext* ctx, Partitions partitions)
      : ctx_(ctx),
        parts_(std::make_shared<const Partitions>(std::move(partitions))) {}

  template <typename U>
  friend class Dataset;

  ExecutionContext* ctx_;
  std::shared_ptr<const Partitions> parts_;
};

}  // namespace dbscout::dataflow

#endif  // DBSCOUT_DATAFLOW_DATASET_H_
