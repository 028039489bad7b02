#include "dataflow/dataset.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "dataflow/pair_ops.h"

namespace dbscout::dataflow {
namespace {

class DatasetTest : public ::testing::Test {
 protected:
  ExecutionContext ctx_{/*num_threads=*/4, /*default_partitions=*/8};
};

TEST_F(DatasetTest, FromVectorPreservesAllRecords) {
  std::vector<int> values(100);
  std::iota(values.begin(), values.end(), 0);
  auto ds = Dataset<int>::FromVector(&ctx_, values, 7);
  EXPECT_EQ(ds.num_partitions(), 7u);
  EXPECT_EQ(ds.Count(), 100u);
  auto collected = ds.Collect();
  std::sort(collected.begin(), collected.end());
  EXPECT_EQ(collected, values);
}

TEST_F(DatasetTest, FromVectorUsesContextDefaultPartitions) {
  auto ds = Dataset<int>::FromVector(&ctx_, {1, 2, 3});
  EXPECT_EQ(ds.num_partitions(), 8u);
}

TEST_F(DatasetTest, MorePartitionsThanRecords) {
  auto ds = Dataset<int>::FromVector(&ctx_, {1, 2}, 16);
  EXPECT_EQ(ds.num_partitions(), 16u);
  EXPECT_EQ(ds.Count(), 2u);
}

TEST_F(DatasetTest, IotaGeneratesRange) {
  auto ds = Dataset<uint32_t>::Iota(&ctx_, 10u, 3);
  auto collected = ds.Collect();
  std::sort(collected.begin(), collected.end());
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(collected[i], i);
  }
}

TEST_F(DatasetTest, MapTransformsEveryRecord) {
  auto ds = Dataset<int>::Iota(&ctx_, 50, 4);
  auto doubled = ds.Map([](int x) { return 2 * x; });
  auto values = doubled.Collect();
  std::sort(values.begin(), values.end());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(values[i], 2 * i);
  }
}

TEST_F(DatasetTest, MapCanChangeType) {
  auto ds = Dataset<int>::FromVector(&ctx_, {1, 22, 333});
  auto strings = ds.Map([](int x) { return std::to_string(x); });
  auto values = strings.Collect();
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, (std::vector<std::string>{"1", "22", "333"}));
}

TEST_F(DatasetTest, FlatMapEmitsZeroOrMore) {
  auto ds = Dataset<int>::FromVector(&ctx_, {0, 1, 2, 3}, 2);
  auto expanded = ds.FlatMap<int>([](int x, std::vector<int>* out) {
    for (int i = 0; i < x; ++i) {
      out->push_back(x);
    }
  });
  EXPECT_EQ(expanded.Count(), 6u);  // 0+1+2+3
}

TEST_F(DatasetTest, FilterKeepsMatching) {
  auto ds = Dataset<int>::Iota(&ctx_, 100, 5);
  auto evens = ds.Filter([](int x) { return x % 2 == 0; });
  EXPECT_EQ(evens.Count(), 50u);
  for (int v : evens.Collect()) {
    EXPECT_EQ(v % 2, 0);
  }
}

TEST_F(DatasetTest, UnionConcatenates) {
  auto a = Dataset<int>::FromVector(&ctx_, {1, 2}, 2);
  auto b = Dataset<int>::FromVector(&ctx_, {3}, 1);
  auto u = a.Union(b);
  EXPECT_EQ(u.num_partitions(), 3u);
  auto values = u.Collect();
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, (std::vector<int>{1, 2, 3}));
}

TEST_F(DatasetTest, ForEachVisitsEverything) {
  auto ds = Dataset<int>::Iota(&ctx_, 20, 4);
  int sum = 0;
  ds.ForEach([&sum](int x) { sum += x; });
  EXPECT_EQ(sum, 190);
}

// The laziness contract: narrow transformations only record their
// function; a shuffle or an action runs the fused chain once per record and
// records one stage row for the whole pipeline.
TEST_F(DatasetTest, UnconsumedChainNeverRuns) {
  std::atomic<int> calls{0};
  auto ds = Dataset<int>::Iota(&ctx_, 100, 4);
  ctx_.ResetMetrics();
  auto chain = ds.Map([&calls](int x) {
                   ++calls;
                   return x + 1;
                 })
                   .Filter([&calls](int x) {
                     ++calls;
                     return x % 2 == 0;
                   })
                   .FlatMap<int>([&calls](int x, std::vector<int>* out) {
                     ++calls;
                     out->push_back(x);
                   });
  auto both = chain.Union(chain);
  EXPECT_EQ(both.num_partitions(), 8u);
  EXPECT_EQ(calls.load(), 0);
  EXPECT_TRUE(ctx_.stages().empty());
}

TEST_F(DatasetTest, ShuffleRunsTheChainOncePerRecord) {
  std::atomic<int> maps{0};
  std::atomic<int> filters{0};
  auto pairs = Dataset<int>::Iota(&ctx_, 1000, 4)
                   .Filter([&filters](int x) {
                     ++filters;
                     return x % 10 != 0;
                   })
                   .Map([&maps](int x) {
                     ++maps;
                     return std::make_pair(x % 7, 1);
                   });
  auto counts = ReduceByKey(pairs, [](int a, int b) { return a + b; });
  EXPECT_EQ(filters.load(), 1000);
  EXPECT_EQ(maps.load(), 900);
  int total = 0;
  for (const auto& [key, count] : counts.Collect()) {
    total += count;
  }
  EXPECT_EQ(total, 900);
  EXPECT_EQ(maps.load(), 900);  // reading the shuffle's output reruns nothing
}

TEST_F(DatasetTest, PersistedDatasetRunsOnceForThreeReaders) {
  std::atomic<int> calls{0};
  auto persisted = Dataset<int>::Iota(&ctx_, 50, 4)
                       .Map([&calls](int x) {
                         ++calls;
                         return 2 * x;
                       })
                       .Persist();
  EXPECT_EQ(calls.load(), 50);
  EXPECT_EQ(persisted.Count(), 50u);
  EXPECT_EQ(persisted.Filter([](int x) { return x < 20; }).Count(), 10u);
  int sum = 0;
  persisted.ForEach([&sum](int x) { sum += x; });
  EXPECT_EQ(sum, 2 * 1225);
  EXPECT_EQ(calls.load(), 50);
}

TEST_F(DatasetTest, EachFusedPipelineRecordsOneStageRow) {
  auto ds = Dataset<int>::Iota(&ctx_, 10, 2);
  ctx_.ResetMetrics();
  auto values = ds.Map([](int x) { return x * 3; })
                    .Filter([](int x) { return x % 2 == 0; })
                    .FlatMap<int>([](int x, std::vector<int>* out) {
                      out->push_back(x);
                      out->push_back(x);
                    })
                    .Collect("MyPipeline");
  EXPECT_EQ(values.size(), 10u);
  auto pairs = ds.Map([](int x) { return std::make_pair(x % 3, x); });
  GroupByKey(pairs.Union(pairs), 0, std::hash<int>(), "MyShuffle");
  const auto stages = ctx_.stages();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].name, "MyPipeline");
  EXPECT_EQ(stages[0].records_in, 10u);
  EXPECT_EQ(stages[0].records_out, 10u);
  EXPECT_EQ(stages[0].shuffled_records, 0u);
  EXPECT_EQ(stages[1].name, "MyShuffle");
  EXPECT_EQ(stages[1].records_in, 20u);
  EXPECT_EQ(stages[1].records_out, 3u);
  EXPECT_EQ(stages[1].shuffled_records, 20u);
  // Reading materialized data runs no stage.
  EXPECT_EQ(Dataset<int>::FromVector(&ctx_, {1, 2}).Collect().size(), 2u);
  EXPECT_EQ(ctx_.stages().size(), 2u);
}

TEST_F(DatasetTest, SourceIsImmutableUnderTransforms) {
  auto ds = Dataset<int>::FromVector(&ctx_, {1, 2, 3}, 1);
  auto mapped = ds.Map([](int x) { return x * 10; });
  auto original = ds.Collect();
  std::sort(original.begin(), original.end());
  EXPECT_EQ(original, (std::vector<int>{1, 2, 3}));
}

TEST_F(DatasetTest, BroadcastSharesValue) {
  Broadcast<std::vector<int>> b(std::vector<int>{5, 6, 7});
  EXPECT_EQ(b->size(), 3u);
  EXPECT_EQ((*b)[0], 5);
  Broadcast<std::vector<int>> copy = b;
  EXPECT_EQ(copy.get(), b.get());
}

}  // namespace
}  // namespace dbscout::dataflow
