#ifndef DBSCOUT_DATAFLOW_PAIR_OPS_H_
#define DBSCOUT_DATAFLOW_PAIR_OPS_H_

#include <atomic>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "dataflow/dataset.h"

namespace dbscout::dataflow {

/// Key-value ("wide") transformations over Dataset<std::pair<K, V>>. Each op
/// performs a hash shuffle: every input partition is split into B buckets by
/// hash(key) % B, bucket b of every partition is concatenated into output
/// partition b, and the per-key work happens bucket-locally. This mirrors
/// the hash-partitioned shuffle of Spark and is what makes the partition
/// count a genuine performance knob (Fig. 13). ReduceByKey, like Spark's
/// reduceByKey, first combines each input partition's records per key, so
/// it shuffles at most one record per (partition, key).

namespace internal {

/// The map side of every wide operator: hash-partitions every record of
/// `in` into `buckets` output groups. Returns
/// shuffle[input_partition][bucket].
template <typename K, typename V, typename Hash>
std::vector<std::vector<std::vector<std::pair<K, V>>>> ShuffleByKey(
    ExecutionContext* ctx, const Dataset<std::pair<K, V>>& in, size_t buckets,
    const Hash& hash, uint64_t* shuffled) {
  std::vector<std::vector<std::vector<std::pair<K, V>>>> shuffle(
      in.num_partitions());
  std::atomic<uint64_t> moved{0};
  RunTasks(&ctx->pool(), in.num_partitions(), [&](size_t p) {
    auto& local = shuffle[p];
    local.resize(buckets);
    for (const auto& kv : in.partition(p)) {
      local[hash(kv.first) % buckets].push_back(kv);
    }
    moved.fetch_add(in.partition(p).size(), std::memory_order_relaxed);
  });
  *shuffled = moved.load();
  return shuffle;
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
Dataset<std::pair<K, V>> ReduceByKey(const Dataset<std::pair<K, V>>& in,
                                     Reduce reduce, size_t num_partitions = 0,
                                     const Hash& hash = Hash(),
                                     const char* name = "ReduceByKey") {
  ExecutionContext* ctx = in.context();
  WallTimer timer;
  const size_t buckets =
      num_partitions == 0 ? std::max<size_t>(1, in.num_partitions())
                          : num_partitions;
  auto fold = [&reduce](std::unordered_map<K, V, Hash>* acc, const K& key,
                        const V& value) {
    auto [it, inserted] = acc->try_emplace(key, value);
    if (!inserted) {
      it->second = reduce(it->second, value);
    }
  };

  // The map-side combine: one record per key and input partition, which
  // the shared shuffle then buckets.
  typename Dataset<std::pair<K, V>>::Partitions combined(in.num_partitions());
  RunTasks(&ctx->pool(), in.num_partitions(), [&](size_t p) {
    std::unordered_map<K, V, Hash> acc(16, hash);
    for (const auto& kv : in.partition(p)) {
      fold(&acc, kv.first, kv.second);
    }
    combined[p].assign(std::make_move_iterator(acc.begin()),
                       std::make_move_iterator(acc.end()));
  });
  uint64_t shuffled = 0;
  auto shuffle = internal::ShuffleByKey(
      ctx, Dataset<std::pair<K, V>>::FromPartitions(ctx, std::move(combined)),
      buckets, hash, &shuffled);

  typename Dataset<std::pair<K, V>>::Partitions out(buckets);
  std::atomic<uint64_t> out_records{0};
  RunTasks(&ctx->pool(), buckets, [&](size_t b) {
    std::unordered_map<K, V, Hash> acc(16, hash);
    for (const auto& per_part : shuffle) {
      for (const auto& kv : per_part[b]) {
        fold(&acc, kv.first, kv.second);
      }
    }
    out[b].reserve(acc.size());
    for (auto& kv : acc) {
      out[b].emplace_back(kv.first, std::move(kv.second));
    }
    out_records.fetch_add(out[b].size(), std::memory_order_relaxed);
  });

  auto result =
      Dataset<std::pair<K, V>>::FromPartitions(ctx, std::move(out));
  StageMetrics m;
  m.name = name;
  m.seconds = timer.ElapsedSeconds();
  m.records_in = in.Count();
  m.records_out = out_records.load();
  m.shuffled_records = shuffled;
  ctx->RecordStage(std::move(m));
  return result;
}

/// GROUPBYKEY: gathers all values per key into one vector.
template <typename K, typename V, typename Hash = std::hash<K>>
Dataset<std::pair<K, std::vector<V>>> GroupByKey(
    const Dataset<std::pair<K, V>>& in, size_t num_partitions = 0,
    const Hash& hash = Hash(), const char* name = "GroupByKey") {
  ExecutionContext* ctx = in.context();
  WallTimer timer;
  const size_t buckets =
      num_partitions == 0 ? std::max<size_t>(1, in.num_partitions())
                          : num_partitions;
  uint64_t shuffled = 0;
  auto shuffle = internal::ShuffleByKey(ctx, in, buckets, hash, &shuffled);

  typename Dataset<std::pair<K, std::vector<V>>>::Partitions out(buckets);
  std::atomic<uint64_t> out_records{0};
  RunTasks(&ctx->pool(), buckets, [&](size_t b) {
    std::unordered_map<K, std::vector<V>, Hash> acc(16, hash);
    for (const auto& per_part : shuffle) {
      for (const auto& kv : per_part[b]) {
        acc[kv.first].push_back(kv.second);
      }
    }
    out[b].reserve(acc.size());
    for (auto& kv : acc) {
      out[b].emplace_back(kv.first, std::move(kv.second));
    }
    out_records.fetch_add(out[b].size(), std::memory_order_relaxed);
  });

  auto result = Dataset<std::pair<K, std::vector<V>>>::FromPartitions(
      ctx, std::move(out));
  StageMetrics m;
  m.name = name;
  m.seconds = timer.ElapsedSeconds();
  m.records_in = shuffled;
  m.records_out = out_records.load();
  m.shuffled_records = shuffled;
  ctx->RecordStage(std::move(m));
  return result;
}

/// JOIN: inner hash join; emits (k, (v, w)) for every matching pair, i.e.
/// the full per-key cross product, exactly like Spark's join.
template <typename K, typename V, typename W, typename Hash = std::hash<K>>
Dataset<std::pair<K, std::pair<V, W>>> Join(
    const Dataset<std::pair<K, V>>& left,
    const Dataset<std::pair<K, W>>& right, size_t num_partitions = 0,
    const Hash& hash = Hash(), const char* name = "Join") {
  ExecutionContext* ctx = left.context();
  WallTimer timer;
  const size_t buckets =
      num_partitions == 0
          ? std::max<size_t>({size_t{1}, left.num_partitions(),
                              right.num_partitions()})
          : num_partitions;
  uint64_t shuffled_left = 0;
  uint64_t shuffled_right = 0;
  auto left_shuffle =
      internal::ShuffleByKey(ctx, left, buckets, hash, &shuffled_left);
  auto right_shuffle =
      internal::ShuffleByKey(ctx, right, buckets, hash, &shuffled_right);

  typename Dataset<std::pair<K, std::pair<V, W>>>::Partitions out(buckets);
  std::atomic<uint64_t> out_records{0};
  RunTasks(&ctx->pool(), buckets, [&](size_t b) {
    std::unordered_multimap<K, V, Hash> build(16, hash);
    for (const auto& per_part : left_shuffle) {
      for (const auto& kv : per_part[b]) {
        build.emplace(kv.first, kv.second);
      }
    }
    for (const auto& per_part : right_shuffle) {
      for (const auto& kw : per_part[b]) {
        auto [begin, end] = build.equal_range(kw.first);
        for (auto it = begin; it != end; ++it) {
          out[b].emplace_back(kw.first,
                              std::make_pair(it->second, kw.second));
        }
      }
    }
    out_records.fetch_add(out[b].size(), std::memory_order_relaxed);
  });

  auto result = Dataset<std::pair<K, std::pair<V, W>>>::FromPartitions(
      ctx, std::move(out));
  StageMetrics m;
  m.name = name;
  m.seconds = timer.ElapsedSeconds();
  m.records_in = shuffled_left + shuffled_right;
  m.records_out = out_records.load();
  m.shuffled_records = shuffled_left + shuffled_right;
  ctx->RecordStage(std::move(m));
  return result;
}

/// Collects a pair dataset into a driver-side multimap-as-map-of-vectors.
template <typename K, typename V, typename Hash = std::hash<K>>
std::unordered_map<K, std::vector<V>, Hash> CollectGrouped(
    const Dataset<std::pair<K, V>>& in, const Hash& hash = Hash()) {
  std::unordered_map<K, std::vector<V>, Hash> out(16, hash);
  in.ForEach(
      [&out](const std::pair<K, V>& kv) { out[kv.first].push_back(kv.second); });
  return out;
}

}  // namespace dbscout::dataflow

#endif  // DBSCOUT_DATAFLOW_PAIR_OPS_H_
