#ifndef DBSCOUT_DATAFLOW_DATASET_H_
#define DBSCOUT_DATAFLOW_DATASET_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <functional>
#include <memory>
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

/// The hand-off from one fused step to the next: a non-owning reference to
/// the next step's record callback. A step passes a record it owns as an
/// rvalue, so the step that stores it (a shuffle's bucket) can take it by
/// move, and a record it only reads as a const reference.
template <typename T>
class Emit {
 public:
  template <typename F>
  explicit Emit(F& next)
      : next_(&next),
        copy_([](void* f, const T& r) { (*static_cast<F*>(f))(r); }),
        move_([](void* f, T&& r) { (*static_cast<F*>(f))(std::move(r)); }) {}

  void operator()(const T& record) const { copy_(next_, record); }
  void operator()(T&& record) const { move_(next_, std::move(record)); }

 private:
  void* next_;
  void (*copy_)(void*, const T&);
  void (*move_)(void*, T&&);
};

namespace internal {

/// Runs task(t) for every t < tasks on `pool` (nullptr: inline, in order).
/// With a trace attached to `ctx`, each task is one span named `name`, from
/// the worker that ran it. Each task returns the number of records it read;
/// returns their total.
template <typename Task>
uint64_t RunStageTasks(ExecutionContext* ctx, ThreadPool* pool,
                       const char* name, size_t tasks, const Task& task) {
  std::atomic<uint64_t> records{0};
  obs::TraceCollector* const trace = ctx->trace();
  RunTasks(pool, tasks, [&](size_t t) {
    WallTimer timer;
    const uint64_t read = task(t);
    if (trace != nullptr) {
      trace->AddSpanEndingNow(name, ctx->trace_category(),
                              timer.ElapsedSeconds(), 0, read);
    }
    records.fetch_add(read, std::memory_order_relaxed);
  });
  return records.load();
}

/// Records one stage row on `ctx`, timed from `timer`'s start.
inline void RecordStage(ExecutionContext* ctx, const char* name,
                        const WallTimer& timer, uint64_t records_in,
                        uint64_t records_out, uint64_t shuffled_records = 0) {
  StageMetrics m;
  m.name = name;
  m.seconds = timer.ElapsedSeconds();
  m.records_in = records_in;
  m.records_out = records_out;
  m.shuffled_records = shuffled_records;
  ctx->RecordStage(std::move(m));
}

}  // namespace internal

/// An immutable, partitioned dataset — the engine's analogue of a Spark
/// RDD. A dataset is either materialized (its partitions are held in
/// memory) or lazy (a pipeline that produces a partition's records on
/// demand). The narrow transformations Map, Filter, FlatMap, Union and
/// TransformPartitions are lazy: they record their function and return a
/// lazy dataset, and nothing runs until a shuffle (pair_ops.h) or an action
/// (Count, Collect, ForEach, Persist) evaluates the chain. Each evaluation is
/// one stage: one task per partition on the context's thread pool runs the
/// fused steps and hands each record straight to the stage's sink, and the
/// stage records one StageMetrics row. A chain read by several stages runs
/// once per stage unless it is Persist()ed, Spark's cache. Copying a Dataset
/// is cheap (handles share storage); a shuffle that holds the only handle
/// to a chain's materialized data takes its records by move and frees each
/// partition once read, so no dataset outlives its last reader.
template <typename T>
class Dataset {
 public:
  using Partitions = std::vector<std::vector<T>>;
  /// A lazy dataset's fused steps: produces partition `p`'s records into
  /// `emit`. `consume` is set when the caller holds the only handle to the
  /// chain, which may then move records out of its materialized data.
  using Pipeline =
      std::function<void(size_t p, bool consume, Emit<T> emit)>;

  Dataset() : ctx_(nullptr), parts_(std::make_shared<Partitions>()) {}

  /// Distributes `values` into `num_partitions` contiguous slices
  /// (0 = context default).
  static Dataset FromVector(ExecutionContext* ctx, std::vector<T> values,
                            size_t num_partitions = 0) {
    const size_t parts = PartitionCount(ctx, num_partitions);
    const size_t n = values.size();
    const size_t chunk = (n + parts - 1) / parts;
    Partitions partitions(parts);
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

  /// The indices 0..n-1 in contiguous slices, as FromVector lays them out.
  /// Lazy: the indices are generated where they are read.
  template <typename U = T>
  static Dataset Iota(ExecutionContext* ctx, U n, size_t num_partitions = 0) {
    static_assert(std::is_integral_v<U>);
    const size_t parts = PartitionCount(ctx, num_partitions);
    const size_t count = static_cast<size_t>(n);
    const size_t chunk = (count + parts - 1) / parts;
    return Dataset(ctx, parts,
                   [count, chunk](size_t p, bool, Emit<T> emit) {
                     const size_t end = std::min(count, (p + 1) * chunk);
                     for (size_t i = std::min(count, p * chunk); i < end;
                          ++i) {
                       emit(static_cast<T>(i));
                     }
                   });
  }

  ExecutionContext* context() const { return ctx_; }
  size_t num_partitions() const { return num_parts_; }
  bool materialized() const { return parts_ != nullptr; }

  /// Partition `i` of a materialized dataset.
  const std::vector<T>& partition(size_t i) const {
    assert(materialized());
    return (*parts_)[i];
  }

  // ---- Narrow transformations (lazy). ------------------------------------

  /// MAP: one output record per input record.
  template <typename F>
  auto Map(F fn) const {
    using U = std::decay_t<decltype(fn(std::declval<const T&>()))>;
    return Dataset<U>(ctx_, num_parts_,
                      [src = *this, fn](size_t p, bool consume,
                                        Emit<U> emit) {
                        auto step = [&](const T& record) {
                          emit(fn(record));
                        };
                        src.RunPartition(p, consume, step);
                      });
  }

  /// FLATMAP: fn(record, out) appends zero or more output records.
  template <typename U, typename F>
  Dataset<U> FlatMap(F fn) const {
    return Dataset<U>(ctx_, num_parts_,
                      [src = *this, fn](size_t p, bool consume,
                                        Emit<U> emit) {
                        std::vector<U> out;
                        auto step = [&](const T& record) {
                          fn(record, &out);
                          for (U& u : out) {
                            emit(std::move(u));
                          }
                          out.clear();
                        };
                        src.RunPartition(p, consume, step);
                      });
  }

  /// FILTER: keeps records where pred(record) is true.
  template <typename F>
  Dataset<T> Filter(F pred) const {
    return Dataset(ctx_, num_parts_,
                   [src = *this, pred](size_t p, bool consume, Emit<T> emit) {
                     auto step = [&](auto&& record) {
                       if (pred(std::as_const(record))) {
                         emit(std::forward<decltype(record)>(record));
                       }
                     };
                     src.RunPartition(p, consume, step);
                   });
  }

  /// UNION: this dataset's partitions followed by `other`'s (no shuffle and
  /// no copy, like Spark).
  Dataset<T> Union(const Dataset<T>& other) const {
    const size_t split = num_parts_;
    return Dataset(ctx_, num_parts_ + other.num_parts_,
                   [a = *this, b = other, split](size_t p, bool consume,
                                                 Emit<T> emit) {
                     if (p < split) {
                       a.RunPartition(p, consume, emit);
                     } else {
                       b.RunPartition(p - split, consume, emit);
                     }
                   });
  }

  /// Runs `body(partition, out_partition)` over each whole partition, for
  /// steps that need all of a partition's records at once (a per-partition
  /// pre-aggregation). The input partition is gathered first.
  template <typename U, typename Body>
  Dataset<U> TransformPartitions(Body body) const {
    return Dataset<U>(
        ctx_, num_parts_,
        [src = *this, body](size_t p, bool consume, Emit<U> emit) {
          std::vector<T> in;
          auto gather = [&in](auto&& record) {
            in.push_back(std::forward<decltype(record)>(record));
          };
          src.RunPartition(p, consume, gather);
          std::vector<U> out;
          body(in, &out);
          for (U& u : out) {
            emit(std::move(u));
          }
        });
  }

  // ---- Actions. ----------------------------------------------------------
  // On a lazy dataset each runs the chain as one stage named `name` and
  // records its row; on a materialized one it only reads the partitions.

  /// Materializes the dataset once for several readers (Spark's cache).
  Dataset Persist(const char* name = "Persist") const {
    return materialized() ? *this : Dataset(ctx_, Evaluate(name));
  }

  /// Total number of records across partitions.
  size_t Count(const char* name = "Count") const {
    if (materialized()) {
      size_t n = 0;
      for (const auto& p : *parts_) n += p.size();
      return n;
    }
    WallTimer timer;
    const uint64_t n = internal::RunStageTasks(
        ctx_, &ctx_->pool(), name, num_parts_, [this](size_t p) {
          uint64_t count = 0;
          auto tally = [&count](const T&) { ++count; };
          RunPartition(p, false, tally);
          return count;
        });
    internal::RecordStage(ctx_, name, timer, n, n);
    return n;
  }

  /// Concatenates all partitions on the driver.
  std::vector<T> Collect(const char* name = "Collect") const {
    std::vector<T> out;
    if (materialized()) {
      out.reserve(Count());
      for (const auto& p : *parts_) {
        out.insert(out.end(), p.begin(), p.end());
      }
      return out;
    }
    for (auto& p : Evaluate(name)) {
      out.insert(out.end(), std::make_move_iterator(p.begin()),
                 std::make_move_iterator(p.end()));
    }
    return out;
  }

  /// Driver-side sequential iteration (the FOREACH of Algorithm 4): fn sees
  /// every record in partition order, on the calling thread.
  template <typename F>
  void ForEach(F fn, const char* name = "ForEach") const {
    if (materialized()) {
      for (size_t p = 0; p < num_parts_; ++p) RunPartition(p, false, fn);
      return;
    }
    WallTimer timer;
    const uint64_t n = internal::RunStageTasks(
        ctx_, nullptr, name, num_parts_, [&](size_t p) {
          uint64_t count = 0;
          auto counted = [&](const T& record) {
            fn(record);
            ++count;
          };
          RunPartition(p, false, counted);
          return count;
        });
    internal::RecordStage(ctx_, name, timer, n, n);
  }

  // ---- For the shuffles in pair_ops.h. -----------------------------------

  /// Hands every record of partition `p` to `sink`, running the fused steps
  /// of a lazy dataset. With `consume` (the caller holds the only handle),
  /// materialized data no other handle shares is moved out and freed.
  template <typename Sink>
  void RunPartition(size_t p, bool consume, Sink& sink) const {
    if (pipeline_ != nullptr) {
      const bool sole = consume && pipeline_.use_count() == 1;
      if constexpr (std::is_same_v<Sink, Emit<T>>) {
        (*pipeline_)(p, sole, sink);
      } else {
        (*pipeline_)(p, sole, Emit<T>(sink));
      }
      return;
    }
    std::vector<T>& part = (*parts_)[p];
    if (consume && parts_.use_count() == 1) {
      for (T& record : part) {
        sink(std::move(record));
      }
      std::vector<T>().swap(part);
    } else {
      for (const T& record : part) {
        sink(record);
      }
    }
  }

 private:
  template <typename U>
  friend class Dataset;

  Dataset(ExecutionContext* ctx, Partitions partitions)
      : ctx_(ctx),
        num_parts_(partitions.size()),
        parts_(std::make_shared<Partitions>(std::move(partitions))) {}

  Dataset(ExecutionContext* ctx, size_t num_parts, Pipeline pipeline)
      : ctx_(ctx),
        num_parts_(num_parts),
        pipeline_(std::make_shared<const Pipeline>(std::move(pipeline))) {}

  static size_t PartitionCount(ExecutionContext* ctx, size_t requested) {
    return std::max<size_t>(
        1, requested == 0 ? ctx->default_partitions() : requested);
  }

  /// Runs every partition's fused steps as one stage and keeps the output.
  Partitions Evaluate(const char* name) const {
    WallTimer timer;
    Partitions out(num_parts_);
    const uint64_t n = internal::RunStageTasks(
        ctx_, &ctx_->pool(), name, num_parts_, [&](size_t p) {
          std::vector<T> part;  // not out[p]: neighbors share its line
          auto keep = [&part](auto&& record) {
            part.push_back(std::forward<decltype(record)>(record));
          };
          RunPartition(p, false, keep);
          out[p] = std::move(part);
          return static_cast<uint64_t>(out[p].size());
        });
    internal::RecordStage(ctx_, name, timer, n, n);
    return out;
  }

  ExecutionContext* ctx_;
  size_t num_parts_ = 0;
  std::shared_ptr<Partitions> parts_;         // set when materialized
  std::shared_ptr<const Pipeline> pipeline_;  // set when lazy
};

}  // namespace dbscout::dataflow

#endif  // DBSCOUT_DATAFLOW_DATASET_H_
