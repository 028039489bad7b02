#include "dataflow/pair_ops.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

namespace dbscout::dataflow {
namespace {

using IntPair = std::pair<int, int>;

class PairOpsTest : public ::testing::Test {
 protected:
  ExecutionContext ctx_{/*num_threads=*/4, /*default_partitions=*/4};
};

TEST_F(PairOpsTest, ReduceByKeySumsValues) {
  std::vector<IntPair> records;
  for (int i = 0; i < 100; ++i) {
    records.push_back({i % 7, 1});
  }
  auto ds = Dataset<IntPair>::FromVector(&ctx_, records, 5);
  auto reduced = ReduceByKey(ds, [](int a, int b) { return a + b; });
  std::map<int, int> result;
  for (const auto& [k, v] : reduced.Collect()) {
    EXPECT_TRUE(result.emplace(k, v).second) << "duplicate key " << k;
  }
  ASSERT_EQ(result.size(), 7u);
  int total = 0;
  for (const auto& [k, v] : result) {
    total += v;
  }
  EXPECT_EQ(total, 100);
  EXPECT_EQ(result[0], 15);  // 0,7,...,98
}

TEST_F(PairOpsTest, ReduceByKeySingleRecordPerKeyPassesThrough) {
  auto ds = Dataset<IntPair>::FromVector(&ctx_, {{1, 10}, {2, 20}}, 2);
  auto reduced = ReduceByKey(ds, [](int, int) -> int {
    ADD_FAILURE() << "reducer must not run for singleton keys";
    return 0;
  });
  EXPECT_EQ(reduced.Count(), 2u);
}

TEST_F(PairOpsTest, ReduceByKeyRespectsRequestedPartitions) {
  auto ds = Dataset<IntPair>::FromVector(&ctx_, {{1, 1}, {2, 2}}, 2);
  auto reduced =
      ReduceByKey(ds, [](int a, int b) { return a + b; }, /*partitions=*/9);
  EXPECT_EQ(reduced.num_partitions(), 9u);
}

TEST_F(PairOpsTest, GroupByKeyCollectsAllValues) {
  std::vector<IntPair> records = {{1, 10}, {2, 20}, {1, 11}, {1, 12}, {2, 21}};
  auto ds = Dataset<IntPair>::FromVector(&ctx_, records, 3);
  auto grouped = GroupByKey(ds);
  std::map<int, std::vector<int>> result;
  for (auto& [k, vs] : grouped.Collect()) {
    std::sort(vs.begin(), vs.end());
    result[k] = vs;
  }
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[1], (std::vector<int>{10, 11, 12}));
  EXPECT_EQ(result[2], (std::vector<int>{20, 21}));
}

TEST_F(PairOpsTest, JoinEmitsCrossProductPerKey) {
  auto left = Dataset<std::pair<int, std::string>>::FromVector(
      &ctx_, {{1, "a"}, {1, "b"}, {2, "c"}, {3, "z"}}, 2);
  auto right = Dataset<IntPair>::FromVector(
      &ctx_, {{1, 100}, {1, 101}, {2, 200}, {4, 400}}, 2);
  auto joined = Join(left, right);
  // key 1: 2x2 = 4 pairs; key 2: 1; keys 3,4 unmatched.
  EXPECT_EQ(joined.Count(), 5u);
  int key1 = 0;
  for (const auto& [k, vw] : joined.Collect()) {
    EXPECT_TRUE(k == 1 || k == 2);
    if (k == 1) {
      ++key1;
      EXPECT_TRUE(vw.first == "a" || vw.first == "b");
      EXPECT_TRUE(vw.second == 100 || vw.second == 101);
    }
  }
  EXPECT_EQ(key1, 4);
}

TEST_F(PairOpsTest, JoinEmptySideYieldsEmpty) {
  auto left = Dataset<IntPair>::FromVector(&ctx_, {}, 2);
  auto right = Dataset<IntPair>::FromVector(&ctx_, {{1, 1}}, 2);
  EXPECT_EQ(Join(left, right).Count(), 0u);
}

TEST_F(PairOpsTest, ShuffleMetricsAreRecorded) {
  ctx_.ResetMetrics();
  auto ds = Dataset<IntPair>::FromVector(&ctx_, {{1, 1}, {2, 2}, {1, 3}}, 2);
  ReduceByKey(ds, [](int a, int b) { return a + b; });
  const auto summary = ctx_.Summary();
  EXPECT_EQ(summary.shuffled_records, 3u);
}

// Each input partition combines its records per key before the shuffle, so
// the stage shuffles one record per (partition, key), not one per input.
TEST_F(PairOpsTest, ReduceByKeyCombinesEachPartitionBeforeTheShuffle) {
  std::vector<IntPair> records;
  std::map<int, int> reference;
  for (int i = 0; i < 1000; ++i) {
    records.push_back({i / 334, i});  // keys 0..2, each over a run of ids
    reference[i / 334] += i;
  }
  auto ds = Dataset<IntPair>::FromVector(&ctx_, records, 4);
  std::set<std::pair<size_t, int>> partition_keys;
  for (size_t p = 0; p < ds.num_partitions(); ++p) {
    for (const auto& kv : ds.partition(p)) {
      partition_keys.emplace(p, kv.first);
    }
  }
  ASSERT_LE(partition_keys.size(), 12u);

  ctx_.ResetMetrics();
  auto reduced = ReduceByKey(ds, [](int a, int b) { return a + b; }, 4);
  std::map<int, int> result;
  for (const auto& [k, v] : reduced.Collect()) {
    EXPECT_TRUE(result.emplace(k, v).second) << "duplicate key " << k;
  }
  EXPECT_EQ(result, reference);
  const auto stages = ctx_.stages();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].records_in, 1000u);
  EXPECT_EQ(stages[0].shuffled_records, partition_keys.size());
  EXPECT_EQ(stages[0].records_out, 3u);
}

/// A value that counts its copies (moves are free).
struct Counted {
  static inline std::atomic<int> copies{0};
  int value = 0;
  explicit Counted(int v) : value(v) {}
  Counted(const Counted& other) : value(other.value) { ++copies; }
  Counted(Counted&&) noexcept = default;
  Counted& operator=(const Counted& other) {
    value = other.value;
    ++copies;
    return *this;
  }
  Counted& operator=(Counted&&) noexcept = default;
};

Dataset<std::pair<int, Counted>> CountedRecords(ExecutionContext* ctx,
                                                int keys, int per_key) {
  std::vector<std::pair<int, Counted>> records;
  for (int i = 0; i < keys * per_key; ++i) {
    records.emplace_back(i % keys, Counted(i));
  }
  return Dataset<std::pair<int, Counted>>::FromVector(ctx, std::move(records),
                                                      3);
}

// Grouped shuffles hand records over by move: a dataset passed with
// std::move is drained into the buckets, the groups move into the join's
// output, and the narrow steps after it read by reference.
TEST_F(PairOpsTest, GroupedJoinMovesEveryValue) {
  Counted::copies = 0;
  auto left = GroupByKey(CountedRecords(&ctx_, 5, 4));
  auto right = GroupByKey(CountedRecords(&ctx_, 5, 3));
  auto joined = Join(std::move(left), std::move(right));
  auto sizes = joined
                   .FlatMap<size_t>(
                       [](const auto& rec, std::vector<size_t>* out) {
                         out->push_back(rec.second.first.size() +
                                        rec.second.second.size());
                       })
                   .Collect();
  EXPECT_EQ(sizes, std::vector<size_t>(5, 7));
  EXPECT_EQ(Counted::copies.load(), 0);
}

TEST_F(PairOpsTest, UnionOfGroupsMovesEveryValue) {
  Counted::copies = 0;
  auto a = GroupByKey(CountedRecords(&ctx_, 4, 2));
  auto b = GroupByKey(CountedRecords(&ctx_, 4, 3));
  auto both = a.Union(b);
  size_t values = 0;
  both.ForEach([&values](const auto& rec) { values += rec.second.size(); });
  EXPECT_EQ(values, 20u);
  // Drained by a join once the union holds the only handles to the groups.
  a = {};
  b = {};
  auto keys =
      Dataset<IntPair>::FromVector(&ctx_, {{0, 0}, {1, 1}, {2, 2}, {3, 3}});
  auto joined = Join(std::move(both), keys);
  EXPECT_EQ(joined.Count(), 8u);
  EXPECT_EQ(Counted::copies.load(), 0);
}

TEST_F(PairOpsTest, ReduceByKeyIsDeterministicAcrossPartitionCounts) {
  std::vector<IntPair> records;
  for (int i = 0; i < 500; ++i) {
    records.push_back({i % 13, i});
  }
  std::map<int, int> reference;
  for (const auto& [k, v] : records) {
    reference[k] += v;
  }
  for (size_t parts : {1u, 2u, 8u, 32u}) {
    auto ds = Dataset<IntPair>::FromVector(&ctx_, records, parts);
    auto reduced =
        ReduceByKey(ds, [](int a, int b) { return a + b; }, parts);
    std::map<int, int> result;
    for (const auto& [k, v] : reduced.Collect()) {
      result[k] = v;
    }
    EXPECT_EQ(result, reference) << "partitions=" << parts;
  }
}

}  // namespace
}  // namespace dbscout::dataflow
