// The dataflow engine must be deterministic in its *results* regardless of
// thread count and partitioning — the property that makes the parallel
// DBSCOUT testable against the sequential oracle.
#include <algorithm>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "dataflow/pair_ops.h"

namespace dbscout::dataflow {
namespace {

/// Canonical word-count pipeline over a synthetic corpus.
std::map<std::string, uint64_t> WordCount(size_t threads, size_t partitions) {
  ExecutionContext ctx(threads, partitions);
  std::vector<std::string> corpus;
  const char* words[] = {"grid", "cell", "core", "outlier", "eps"};
  for (int i = 0; i < 997; ++i) {
    corpus.push_back(words[(i * i) % 5]);
  }
  auto ds = Dataset<std::string>::FromVector(&ctx, corpus, partitions);
  auto pairs = ds.Map([](const std::string& w) {
    return std::make_pair(w, uint64_t{1});
  });
  auto counts =
      ReduceByKey(pairs, [](uint64_t a, uint64_t b) { return a + b; });
  std::map<std::string, uint64_t> result;
  for (const auto& [w, c] : counts.Collect()) {
    result[w] = c;
  }
  return result;
}

TEST(DeterminismTest, WordCountStableAcrossThreadsAndPartitions) {
  const auto reference = WordCount(1, 1);
  uint64_t total = 0;
  for (const auto& [w, c] : reference) {
    total += c;
  }
  EXPECT_EQ(total, 997u);
  for (size_t threads : {2u, 4u}) {
    for (size_t partitions : {2u, 7u, 16u}) {
      EXPECT_EQ(WordCount(threads, partitions), reference)
          << threads << " threads, " << partitions << " partitions";
    }
  }
}

TEST(DeterminismTest, ChainedPipelinePreservesMultisets) {
  ExecutionContext ctx(4, 8);
  // Each kept x contributes {x, -x} and abs folds them back, so every kept
  // value appears exactly twice (x = 0 is dropped: 0 % 3 == 0).
  std::vector<int> expected;
  for (int x = 1; x < 5000; ++x) {
    if (x % 3 != 0) {
      expected.push_back(x);
      expected.push_back(x);
    }
  }
  for (size_t partitions : {1u, 5u, 8u}) {
    auto ds = Dataset<int>::Iota(&ctx, 5000, partitions);
    // filter -> flatmap -> map
    auto result = ds.Filter([](int x) { return x % 3 != 0; })
                      .FlatMap<int>([](int x, std::vector<int>* out) {
                        out->push_back(x);
                        out->push_back(-x);
                      })
                      .Map([](int x) { return std::abs(x); });
    auto values = result.Collect();
    std::sort(values.begin(), values.end());
    EXPECT_EQ(values, expected) << partitions << " partitions";
  }
}

TEST(DeterminismTest, JoinResultSetIndependentOfPartitioning) {
  std::vector<std::pair<int, int>> lhs;
  std::vector<std::pair<int, int>> rhs;
  for (int i = 0; i < 200; ++i) {
    lhs.push_back({i % 23, i});
    rhs.push_back({i % 19, 1000 + i});
  }
  std::vector<std::tuple<int, int, int>> reference;
  {
    ExecutionContext ctx(1, 1);
    auto joined =
        Join(Dataset<std::pair<int, int>>::FromVector(&ctx, lhs, 1),
             Dataset<std::pair<int, int>>::FromVector(&ctx, rhs, 1));
    for (const auto& [k, vw] : joined.Collect()) {
      reference.emplace_back(k, vw.first, vw.second);
    }
    std::sort(reference.begin(), reference.end());
  }
  for (size_t partitions : {3u, 11u}) {
    ExecutionContext ctx(4, partitions);
    auto joined = Join(
        Dataset<std::pair<int, int>>::FromVector(&ctx, lhs, partitions),
        Dataset<std::pair<int, int>>::FromVector(&ctx, rhs, partitions));
    std::vector<std::tuple<int, int, int>> result;
    for (const auto& [k, vw] : joined.Collect()) {
      result.emplace_back(k, vw.first, vw.second);
    }
    std::sort(result.begin(), result.end());
    EXPECT_EQ(result, reference) << partitions << " partitions";
  }
}

}  // namespace
}  // namespace dbscout::dataflow
