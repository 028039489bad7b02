#ifndef DBSCOUT_DATAFLOW_PAIR_OPS_H_
#define DBSCOUT_DATAFLOW_PAIR_OPS_H_

#include <type_traits>
#include <utility>
#include <vector>

#include "common/key_table.h"
#include "common/timer.h"
#include "dataflow/dataset.h"

namespace dbscout::dataflow {

/// Key-value ("wide") transformations over Dataset<std::pair<K, V>>. Each op
/// ends a stage: its map side runs the input's fused narrow steps per input
/// partition and writes every record straight into bucket hash(key) % B,
/// and its reduce side concatenates bucket b of every input partition into
/// output partition b, where the per-key work happens. This mirrors the
/// hash-partitioned shuffle of Spark and is what makes the partition count a
/// genuine performance knob (Fig. 13). The output is materialized; each op
/// records one StageMetrics row for its map side, shuffle and reduce side.
/// Inputs are taken by value: pass one with std::move and the shuffle takes
/// its records by move, freeing the input as it goes. ReduceByKey, like
/// Spark's reduceByKey, first combines each input partition's records per
/// key, so it shuffles at most one record per (partition, key).

namespace internal {

/// shuffle[input partition][bucket]: the map side's output.
template <typename K, typename V>
using Shuffle = std::vector<std::vector<std::vector<std::pair<K, V>>>>;

/// The map side of every wide operator: runs `in` per input partition and
/// writes each record into bucket hash(key) % buckets. Adds the records
/// written to `*shuffled`.
template <typename K, typename V, typename Hash>
Shuffle<K, V> ShuffleByKey(ExecutionContext* ctx, const char* name,
                           Dataset<std::pair<K, V>> in, size_t buckets,
                           const Hash& hash, uint64_t* shuffled) {
  Shuffle<K, V> shuffle(in.num_partitions());
  *shuffled += RunStageTasks(
      ctx, &ctx->pool(), name, in.num_partitions(), [&](size_t p) {
        auto& local = shuffle[p];
        local.resize(buckets);
        uint64_t written = 0;
        auto write = [&](auto&& kv) {
          local[hash(kv.first) % buckets].push_back(
              std::forward<decltype(kv)>(kv));
          ++written;
        };
        in.RunPartition(p, /*consume=*/true, write);
        return written;
      });
  return shuffle;
}

/// The reduce side's read: hands `fn` every record shuffled to `bucket`, by
/// move and in input-partition order, freeing each partition's share of the
/// bucket once read.
template <typename K, typename V, typename F>
void DrainBucket(Shuffle<K, V>* shuffle, size_t bucket, F fn) {
  for (auto& per_part : *shuffle) {
    for (auto& kv : per_part[bucket]) {
      fn(std::move(kv));
    }
    std::vector<std::pair<K, V>>().swap(per_part[bucket]);
  }
}

inline size_t BucketCount(size_t requested, size_t input_partitions) {
  return requested == 0 ? std::max<size_t>(1, input_partitions) : requested;
}

}  // namespace internal

/// REDUCEBYKEY: combines all values sharing a key with `reduce(v1, v2)`.
/// Output has `num_partitions` partitions (0 = keep input partition count).
/// Each input partition first reduces its own records into one value per
/// key (the map-side combine), and only those are shuffled; each bucket then
/// reduces the partial values in input-partition order. So `reduce` must be
/// associative and commutative, and the stage's `shuffled_records` counts
/// the records after the combine, while `records_in` counts the input.
template <typename K, typename V, typename Reduce,
          typename Hash = std::hash<K>>
Dataset<std::pair<K, V>> ReduceByKey(Dataset<std::pair<K, V>> in,
                                     Reduce reduce, size_t num_partitions = 0,
                                     const Hash& hash = Hash(),
                                     const char* name = "ReduceByKey") {
  using Record = std::pair<K, V>;
  ExecutionContext* ctx = in.context();
  WallTimer timer;
  const size_t buckets =
      internal::BucketCount(num_partitions, in.num_partitions());
  // Values by key id, one per distinct key in first-appearance order.
  struct Partials {
    KeyTable<K, Hash> keys;
    std::vector<V> values;

    void Fold(const K& key, const V& value, Reduce& reduce) {
      const uint32_t id = keys.IdOf(key);
      if (id == values.size()) {
        values.push_back(value);
      } else {
        values[id] = reduce(values[id], value);
      }
    }
    std::vector<Record> Take() {
      std::vector<Record> out;
      out.reserve(values.size());
      for (size_t id = 0; id < values.size(); ++id) {
        out.emplace_back(keys.keys()[id], std::move(values[id]));
      }
      return out;
    }
  };

  // The map-side combine: one record per key and input partition, which
  // the shared shuffle then buckets.
  typename Dataset<Record>::Partitions combined(in.num_partitions());
  const uint64_t records_in = internal::RunStageTasks(
      ctx, &ctx->pool(), name, in.num_partitions(), [&](size_t p) {
        Partials acc{KeyTable<K, Hash>(hash), {}};
        uint64_t read = 0;
        auto combine = [&](const Record& kv) {
          acc.Fold(kv.first, kv.second, reduce);
          ++read;
        };
        in.RunPartition(p, /*consume=*/true, combine);
        combined[p] = acc.Take();
        return read;
      });
  in = Dataset<Record>();  // the input's last reader is done
  uint64_t shuffled = 0;
  auto shuffle = internal::ShuffleByKey(
      ctx, name, Dataset<Record>::FromPartitions(ctx, std::move(combined)),
      buckets, hash, &shuffled);

  typename Dataset<Record>::Partitions out(buckets);
  const uint64_t records_out = internal::RunStageTasks(
      ctx, &ctx->pool(), name, buckets, [&](size_t b) {
        Partials acc{KeyTable<K, Hash>(hash), {}};
        internal::DrainBucket(&shuffle, b, [&](Record&& kv) {
          acc.Fold(kv.first, kv.second, reduce);
        });
        out[b] = acc.Take();
        return static_cast<uint64_t>(out[b].size());
      });
  internal::RecordStage(ctx, name, timer, records_in, records_out, shuffled);
  return Dataset<Record>::FromPartitions(ctx, std::move(out));
}

/// GROUPBYKEY: gathers all values per key into one vector.
template <typename K, typename V, typename Hash = std::hash<K>>
Dataset<std::pair<K, std::vector<V>>> GroupByKey(
    Dataset<std::pair<K, V>> in, size_t num_partitions = 0,
    const Hash& hash = Hash(), const char* name = "GroupByKey") {
  using Group = std::pair<K, std::vector<V>>;
  ExecutionContext* ctx = in.context();
  WallTimer timer;
  const size_t buckets =
      internal::BucketCount(num_partitions, in.num_partitions());
  uint64_t shuffled = 0;
  auto shuffle =
      internal::ShuffleByKey(ctx, name, std::move(in), buckets, hash,
                             &shuffled);

  typename Dataset<Group>::Partitions out(buckets);
  const uint64_t records_out = internal::RunStageTasks(
      ctx, &ctx->pool(), name, buckets, [&](size_t b) {
        KeyTable<K, Hash> keys(hash);
        std::vector<Group> groups;
        internal::DrainBucket(&shuffle, b, [&](std::pair<K, V>&& kv) {
          const uint32_t id = keys.IdOf(kv.first);
          if (id == groups.size()) {
            groups.emplace_back(kv.first, std::vector<V>());
          }
          groups[id].second.push_back(std::move(kv.second));
        });
        out[b] = std::move(groups);
        return static_cast<uint64_t>(out[b].size());
      });
  internal::RecordStage(ctx, name, timer, shuffled, records_out, shuffled);
  return Dataset<Group>::FromPartitions(ctx, std::move(out));
}

/// JOIN: inner hash join; emits (k, (v, w)) for every matching pair, i.e.
/// the full per-key cross product, exactly like Spark's join, in the order
/// of the right side's records. A value is copied only when another pair
/// still needs it: each right value moves into its last pair, and a left
/// value that is not trivially copyable moves into the pair of the last
/// right record with its key (so joining two GroupByKey outputs moves every
/// group).
template <typename K, typename V, typename W, typename Hash = std::hash<K>>
Dataset<std::pair<K, std::pair<V, W>>> Join(
    Dataset<std::pair<K, V>> left, Dataset<std::pair<K, W>> right,
    size_t num_partitions = 0, const Hash& hash = Hash(),
    const char* name = "Join") {
  using Out = std::pair<K, std::pair<V, W>>;
  constexpr bool kCountProbes = !std::is_trivially_copyable_v<V>;
  ExecutionContext* ctx = left.context();
  WallTimer timer;
  const size_t buckets =
      num_partitions == 0
          ? std::max<size_t>({size_t{1}, left.num_partitions(),
                              right.num_partitions()})
          : num_partitions;
  uint64_t shuffled = 0;
  auto left_shuffle = internal::ShuffleByKey(ctx, name, std::move(left),
                                             buckets, hash, &shuffled);
  auto right_shuffle = internal::ShuffleByKey(ctx, name, std::move(right),
                                              buckets, hash, &shuffled);

  typename Dataset<Out>::Partitions out(buckets);
  const uint64_t records_out = internal::RunStageTasks(
      ctx, &ctx->pool(), name, buckets, [&](size_t b) {
        // A key's left values, and how many right records still probe them.
        struct Entry {
          std::vector<V> values;
          size_t probes = 0;
        };
        KeyTable<K, Hash> keys(hash);
        std::vector<Out> pairs;
        std::vector<Entry> build;  // by key id
        internal::DrainBucket(&left_shuffle, b, [&](std::pair<K, V>&& kv) {
          const uint32_t id = keys.IdOf(kv.first);
          if (id == build.size()) {
            build.emplace_back();
          }
          build[id].values.push_back(std::move(kv.second));
        });
        if constexpr (kCountProbes) {
          for (const auto& per_part : right_shuffle) {
            for (const auto& kw : per_part[b]) {
              if (const uint32_t id = keys.Find(kw.first);
                  id != KeyTable<K, Hash>::kAbsent) {
                ++build[id].probes;
              }
            }
          }
        }
        internal::DrainBucket(&right_shuffle, b, [&](std::pair<K, W>&& kw) {
          const uint32_t id = keys.Find(kw.first);
          if (id == KeyTable<K, Hash>::kAbsent) {
            return;
          }
          Entry& entry = build[id];
          std::vector<V>& values = entry.values;
          const bool last_probe = kCountProbes && --entry.probes == 0;
          for (size_t i = 0; i < values.size(); ++i) {
            const bool last_value = i + 1 == values.size();
            pairs.emplace_back(
                kw.first,
                std::pair<V, W>(
                    last_probe ? std::move(values[i]) : values[i],
                    last_value ? std::move(kw.second) : kw.second));
          }
        });
        out[b] = std::move(pairs);
        return static_cast<uint64_t>(out[b].size());
      });
  internal::RecordStage(ctx, name, timer, shuffled, records_out, shuffled);
  return Dataset<Out>::FromPartitions(ctx, std::move(out));
}

}  // namespace dbscout::dataflow

#endif  // DBSCOUT_DATAFLOW_PAIR_OPS_H_
