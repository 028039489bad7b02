// Equivalence tests for the batched distance kernels: the dispatched SIMD
// table must agree EXACTLY (same count / any / min, bit-for-bit) with the
// scalar reference across dims 1-9, block lengths 0-65, and eps boundary
// cases — the engines rely on this to stay bit-identical under dispatch.
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "simd/distance_kernel.h"

namespace dbscout::simd {
namespace {

constexpr size_t kMaxBlockLen = 65;

// Brute-force oracle, written independently of the kernel code.
double BruteSqDist(const double* a, const double* b, size_t d) {
  double sum = 0.0;
  for (size_t k = 0; k < d; ++k) {
    const double diff = a[k] - b[k];
    sum += diff * diff;
  }
  return sum;
}

struct Workload {
  std::vector<double> query;
  std::vector<double> block;  // row-major, n x d
  size_t n;
  size_t d;
};

Workload MakeWorkload(Rng* rng, size_t n, size_t d) {
  Workload w;
  w.n = n;
  w.d = d;
  w.query.resize(d);
  for (size_t k = 0; k < d; ++k) {
    w.query[k] = rng->NextDouble() * 10.0 - 5.0;
  }
  w.block.resize(n * d);
  for (size_t i = 0; i < n * d; ++i) {
    // A mix of near and far points so eps thresholds split the block.
    w.block[i] = rng->NextDouble() * 10.0 - 5.0;
  }
  // Plant a few exact duplicates of the query (distance exactly 0).
  for (size_t i = 0; i + 7 < n; i += 7) {
    for (size_t k = 0; k < d; ++k) {
      w.block[i * d + k] = w.query[k];
    }
  }
  return w;
}

/// eps2 values to sweep: 0, tiny, typical, huge, and — crucially — the
/// exact squared distance of a few block points, so `<= eps2` sits on the
/// boundary where a differently-rounded accumulation would flip the result.
std::vector<double> Eps2Cases(const Workload& w) {
  std::vector<double> cases = {0.0, 1e-300, 1.0, 25.0, 1e300};
  for (size_t i = 0; i < w.n; i += 3) {
    cases.push_back(
        BruteSqDist(w.query.data(), w.block.data() + i * w.d, w.d));
  }
  return cases;
}

class DistanceKernelTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DistanceKernelTest, ScalarMatchesBruteForce) {
  const size_t d = GetParam();
  const DistanceKernels& scalar = ScalarKernels();
  Rng rng(100 + d);
  for (size_t n = 0; n <= kMaxBlockLen; ++n) {
    const Workload w = MakeWorkload(&rng, n, d);
    for (double eps2 : Eps2Cases(w)) {
      uint32_t expected = 0;
      double expected_min = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < n; ++i) {
        const double d2 =
            BruteSqDist(w.query.data(), w.block.data() + i * d, d);
        expected += d2 <= eps2 ? 1 : 0;
        expected_min = std::min(expected_min, d2);
      }
      EXPECT_EQ(scalar.count_within[d](w.query.data(), w.block.data(), n,
                                       eps2, 0),
                expected)
          << "n=" << n << " eps2=" << eps2;
      EXPECT_EQ(scalar.any_within[d](w.query.data(), w.block.data(), n, eps2),
                expected > 0);
      EXPECT_EQ(scalar.min_sqdist[d](w.query.data(), w.block.data(), n),
                expected_min);
      std::vector<uint8_t> flags(n + 1, 0xAB);
      EXPECT_EQ(scalar.within_flags[d](w.query.data(), w.block.data(), n,
                                       eps2, flags.data()),
                expected);
      for (size_t i = 0; i < n; ++i) {
        const double d2 =
            BruteSqDist(w.query.data(), w.block.data() + i * d, d);
        EXPECT_EQ(flags[i], d2 <= eps2 ? 1 : 0) << "i=" << i;
      }
      EXPECT_EQ(flags[n], 0xAB);  // no write past the block
    }
  }
}

TEST_P(DistanceKernelTest, DispatchedMatchesScalarExactly) {
  const size_t d = GetParam();
  const DistanceKernels& scalar = ScalarKernels();
  const DistanceKernels& dispatched = DispatchedKernels();
  Rng rng(200 + d);
  for (size_t n = 0; n <= kMaxBlockLen; ++n) {
    const Workload w = MakeWorkload(&rng, n, d);
    for (double eps2 : Eps2Cases(w)) {
      EXPECT_EQ(dispatched.count_within[d](w.query.data(), w.block.data(), n,
                                           eps2, 0),
                scalar.count_within[d](w.query.data(), w.block.data(), n,
                                       eps2, 0))
          << dispatched.name << " n=" << n << " d=" << d << " eps2=" << eps2;
      EXPECT_EQ(
          dispatched.any_within[d](w.query.data(), w.block.data(), n, eps2),
          scalar.any_within[d](w.query.data(), w.block.data(), n, eps2));
      // Bit-exact min (compares +inf == +inf for empty blocks too).
      EXPECT_EQ(dispatched.min_sqdist[d](w.query.data(), w.block.data(), n),
                scalar.min_sqdist[d](w.query.data(), w.block.data(), n));
      std::vector<uint8_t> sflags(n), vflags(n);
      EXPECT_EQ(dispatched.within_flags[d](w.query.data(), w.block.data(), n,
                                           eps2, vflags.data()),
                scalar.within_flags[d](w.query.data(), w.block.data(), n,
                                       eps2, sflags.data()));
      EXPECT_EQ(sflags, vflags) << dispatched.name << " n=" << n;
    }
  }
}

TEST_P(DistanceKernelTest, CappedCountsAgreeAtBatchGranularity) {
  const size_t d = GetParam();
  const DistanceKernels& scalar = ScalarKernels();
  const DistanceKernels& dispatched = DispatchedKernels();
  Rng rng(300 + d);
  for (size_t n = 0; n <= kMaxBlockLen; n += 3) {
    const Workload w = MakeWorkload(&rng, n, d);
    for (double eps2 : {1.0, 25.0, 1e300}) {
      const uint32_t full = scalar.count_within[d](
          w.query.data(), w.block.data(), n, eps2, 0);
      for (uint32_t cap : {1u, 2u, 5u, 100u}) {
        const uint32_t s = scalar.count_within[d](w.query.data(),
                                                  w.block.data(), n, eps2,
                                                  cap);
        const uint32_t v = dispatched.count_within[d](
            w.query.data(), w.block.data(), n, eps2, cap);
        // Both variants check the cap every kKernelBatch points, so the
        // early-exit value itself must match, not just the >=cap decision.
        EXPECT_EQ(s, v) << "cap=" << cap << " n=" << n << " eps2=" << eps2;
        EXPECT_LE(s, full);
        EXPECT_EQ(s >= cap, full >= cap);
        if (s < cap) {
          EXPECT_EQ(s, full);  // no early exit -> exact count
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, DistanceKernelTest,
                         ::testing::Range<size_t>(1, kKernelMaxDims + 1));

TEST(DistanceKernelDispatchTest, ForceScalarToggles) {
  const bool saved = ScalarKernelsForced();
  ForceScalarKernels(true);
  EXPECT_TRUE(ScalarKernelsForced());
  EXPECT_STREQ(DispatchedKernels().name, "scalar");
  ForceScalarKernels(false);
  EXPECT_FALSE(ScalarKernelsForced());
#if defined(__x86_64__) || defined(_M_X64)
  // The dispatched table is the one this CPU can run: a build that lost its
  // AVX2 table fails here on an AVX2 machine.
  EXPECT_STREQ(DispatchedKernels().name,
               __builtin_cpu_supports("avx2") ? "avx2" : "scalar");
#else
  EXPECT_STREQ(DispatchedKernels().name, "scalar");
#endif
  ForceScalarKernels(saved);
}

TEST(DistanceKernelDispatchTest, TablesAreFullyPopulated) {
  for (const DistanceKernels* table :
       {&ScalarKernels(), &DispatchedKernels()}) {
    for (size_t d = 0; d <= kKernelMaxDims; ++d) {
      EXPECT_NE(table->count_within[d], nullptr) << table->name << " d=" << d;
      EXPECT_NE(table->any_within[d], nullptr);
      EXPECT_NE(table->min_sqdist[d], nullptr);
      EXPECT_NE(table->within_flags[d], nullptr);
    }
  }
}

}  // namespace
}  // namespace dbscout::simd
