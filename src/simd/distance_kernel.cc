// Batched one-point-vs-block distance kernels with runtime CPU dispatch
// between two tables: the scalar reference and AVX2.
//
// Bit-exactness contract: both variants evaluate, per point, the same
// ascending-k sum of (a[k]-b[k])^2 with separate multiply and add roundings.
// The AVX2 variants therefore use mul+add rather than FMA (a fused
// multiply-add rounds once and can flip <= eps2 decisions on boundary
// points), and this translation unit is compiled with -ffp-contract=off so
// the scalar reference cannot be contracted either. The AVX2 variants
// vectorize across *points* (one point per lane), which keeps each lane's
// accumulation order identical to the scalar loop.
#include "simd/distance_kernel.h"

#include <atomic>
#include <limits>
#include <utility>

// DBSCOUT_SIMD_HAVE_AVX2 is defined by src/simd/CMakeLists.txt when the
// toolchain compiles per-function avx2 targets and __builtin_cpu_supports.
#if defined(DBSCOUT_SIMD_HAVE_AVX2)
#include <immintrin.h>
#endif

namespace dbscout::simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference.
// ---------------------------------------------------------------------------

template <size_t D>
inline double SqDist(const double* a, const double* b) {
  double sum = 0.0;
  for (size_t k = 0; k < D; ++k) {
    const double diff = a[k] - b[k];
    sum += diff * diff;
  }
  return sum;
}

template <size_t D>
uint32_t CountScalar(const double* query, const double* block, size_t count,
                     double eps2, uint32_t cap) {
  uint32_t hits = 0;
  size_t i = 0;
  for (; i + kKernelBatch <= count; i += kKernelBatch) {
    for (size_t j = 0; j < kKernelBatch; ++j) {
      hits += SqDist<D>(query, block + (i + j) * D) <= eps2 ? 1u : 0u;
    }
    // kernel-cap: batch-boundary (contract: cap may only be consulted here,
    // between kKernelBatch-sized batches, so all variants do identical work)
    if (cap != 0 && hits >= cap) {
      return hits;
    }
  }
  for (; i < count; ++i) {
    hits += SqDist<D>(query, block + i * D) <= eps2 ? 1u : 0u;
  }
  return hits;
}

template <size_t D>
bool AnyScalar(const double* query, const double* block, size_t count,
               double eps2) {
  for (size_t i = 0; i < count; ++i) {
    if (SqDist<D>(query, block + i * D) <= eps2) {
      return true;
    }
  }
  return false;
}

template <size_t D>
double MinScalar(const double* query, const double* block, size_t count) {
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < count; ++i) {
    const double d2 = SqDist<D>(query, block + i * D);
    best = d2 < best ? d2 : best;
  }
  return best;
}

template <size_t D>
uint32_t FlagsScalar(const double* query, const double* block, size_t count,
                     double eps2, uint8_t* flags) {
  uint32_t hits = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint8_t within = SqDist<D>(query, block + i * D) <= eps2 ? 1 : 0;
    flags[i] = within;
    hits += within;
  }
  return hits;
}

#if defined(DBSCOUT_SIMD_HAVE_AVX2)

// ---------------------------------------------------------------------------
// AVX2: four points per vector (one kKernelBatch per iteration). Compiled
// for the avx2 target only (not fma — see the bit-exactness contract) and
// selected at runtime via __builtin_cpu_supports.
// ---------------------------------------------------------------------------

#pragma GCC push_options
#pragma GCC target("avx2")

template <size_t D>
inline __m256d SqDist4(const double* query, const double* p) {
  __m256d acc = _mm256_setzero_pd();
  for (size_t k = 0; k < D; ++k) {
    const __m256d v =
        _mm256_setr_pd(p[k], p[D + k], p[2 * D + k], p[3 * D + k]);
    const __m256d diff = _mm256_sub_pd(v, _mm256_set1_pd(query[k]));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
  }
  return acc;
}

template <size_t D>
uint32_t CountAvx2(const double* query, const double* block, size_t count,
                   double eps2, uint32_t cap) {
  const __m256d eps2v = _mm256_set1_pd(eps2);
  uint32_t hits = 0;
  size_t i = 0;
  for (; i + kKernelBatch <= count; i += kKernelBatch) {
    const __m256d d2 = SqDist4<D>(query, block + i * D);
    const int mask = _mm256_movemask_pd(_mm256_cmp_pd(d2, eps2v, _CMP_LE_OQ));
    hits += static_cast<uint32_t>(__builtin_popcount(mask));
    // kernel-cap: batch-boundary (contract: cap may only be consulted here,
    // between kKernelBatch-sized batches, so all variants do identical work)
    if (cap != 0 && hits >= cap) {
      return hits;
    }
  }
  for (; i < count; ++i) {
    hits += SqDist<D>(query, block + i * D) <= eps2 ? 1u : 0u;
  }
  return hits;
}

template <size_t D>
bool AnyAvx2(const double* query, const double* block, size_t count,
             double eps2) {
  const __m256d eps2v = _mm256_set1_pd(eps2);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d d2 = SqDist4<D>(query, block + i * D);
    if (_mm256_movemask_pd(_mm256_cmp_pd(d2, eps2v, _CMP_LE_OQ)) != 0) {
      return true;
    }
  }
  for (; i < count; ++i) {
    if (SqDist<D>(query, block + i * D) <= eps2) {
      return true;
    }
  }
  return false;
}

template <size_t D>
double MinAvx2(const double* query, const double* block, size_t count) {
  __m256d bestv = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    bestv = _mm256_min_pd(bestv, SqDist4<D>(query, block + i * D));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, bestv);
  double best = lanes[0];
  for (int l = 1; l < 4; ++l) {
    best = lanes[l] < best ? lanes[l] : best;
  }
  for (; i < count; ++i) {
    const double d2 = SqDist<D>(query, block + i * D);
    best = d2 < best ? d2 : best;
  }
  return best;
}

template <size_t D>
uint32_t FlagsAvx2(const double* query, const double* block, size_t count,
                   double eps2, uint8_t* flags) {
  const __m256d eps2v = _mm256_set1_pd(eps2);
  uint32_t hits = 0;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d d2 = SqDist4<D>(query, block + i * D);
    const int mask = _mm256_movemask_pd(_mm256_cmp_pd(d2, eps2v, _CMP_LE_OQ));
    flags[i] = static_cast<uint8_t>(mask & 1);
    flags[i + 1] = static_cast<uint8_t>((mask >> 1) & 1);
    flags[i + 2] = static_cast<uint8_t>((mask >> 2) & 1);
    flags[i + 3] = static_cast<uint8_t>((mask >> 3) & 1);
    hits += static_cast<uint32_t>(__builtin_popcount(mask));
  }
  for (; i < count; ++i) {
    const uint8_t within = SqDist<D>(query, block + i * D) <= eps2 ? 1 : 0;
    flags[i] = within;
    hits += within;
  }
  return hits;
}

#pragma GCC pop_options

#endif  // DBSCOUT_SIMD_HAVE_AVX2

// ---------------------------------------------------------------------------
// Table construction and runtime dispatch.
// ---------------------------------------------------------------------------

template <template <size_t> class Tag, size_t... Ds>
void FillTable(DistanceKernels* table, std::index_sequence<Ds...>) {
  ((table->count_within[Ds] = Tag<Ds>::kCount,
    table->any_within[Ds] = Tag<Ds>::kAny,
    table->min_sqdist[Ds] = Tag<Ds>::kMin,
    table->within_flags[Ds] = Tag<Ds>::kFlags),
   ...);
}

template <size_t D>
struct ScalarTag {
  static constexpr CountWithinFn kCount = &CountScalar<D>;
  static constexpr AnyWithinFn kAny = &AnyScalar<D>;
  static constexpr MinSqDistFn kMin = &MinScalar<D>;
  static constexpr WithinFlagsFn kFlags = &FlagsScalar<D>;
};

DistanceKernels MakeScalarTable() {
  DistanceKernels table{};
  table.name = "scalar";
  FillTable<ScalarTag>(&table,
                       std::make_index_sequence<kKernelMaxDims + 1>());
  return table;
}

#if defined(DBSCOUT_SIMD_HAVE_AVX2)

template <size_t D>
struct Avx2Tag {
  static constexpr CountWithinFn kCount = &CountAvx2<D>;
  static constexpr AnyWithinFn kAny = &AnyAvx2<D>;
  static constexpr MinSqDistFn kMin = &MinAvx2<D>;
  static constexpr WithinFlagsFn kFlags = &FlagsAvx2<D>;
};

DistanceKernels MakeAvx2Table() {
  DistanceKernels table{};
  table.name = "avx2";
  FillTable<Avx2Tag>(&table, std::make_index_sequence<kKernelMaxDims + 1>());
  return table;
}

#endif  // DBSCOUT_SIMD_HAVE_AVX2

const DistanceKernels& NativeKernels() {
  static const DistanceKernels* const best = [] {
#if defined(DBSCOUT_SIMD_HAVE_AVX2)
    if (__builtin_cpu_supports("avx2")) {
      static const DistanceKernels avx2 = MakeAvx2Table();
      return &avx2;
    }
#endif
    return &ScalarKernels();
  }();
  return *best;
}

std::atomic<bool> g_force_scalar{false};

}  // namespace

const DistanceKernels& ScalarKernels() {
  static const DistanceKernels table = MakeScalarTable();
  return table;
}

const DistanceKernels& DispatchedKernels() {
  return g_force_scalar.load(std::memory_order_relaxed) ? ScalarKernels()
                                                        : NativeKernels();
}

void ForceScalarKernels(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

bool ScalarKernelsForced() {
  return g_force_scalar.load(std::memory_order_relaxed);
}

}  // namespace dbscout::simd
