#ifndef DBSCOUT_SIMD_DISTANCE_KERNEL_H_
#define DBSCOUT_SIMD_DISTANCE_KERNEL_H_

#include <cstddef>
#include <cstdint>

namespace dbscout::simd {

/// Highest dimensionality with a fixed-dim kernel instantiation; matches
/// dbscout::kMaxDims (the grid machinery's cap). Index 0 is also valid
/// (degenerate: every squared distance is 0).
inline constexpr size_t kKernelMaxDims = 9;

/// Early-exit granularity, in points. Kernels that take a `cap` process the
/// block in batches of this size and check the cap only between batches, so
/// both variants (scalar, AVX2) perform the same, deterministic amount of
/// work and return the same value. This is the paper's grouped-join early
/// termination (SS III-G2) mapped onto block granularity.
inline constexpr size_t kKernelBatch = 4;

/// One-point-vs-block primitives over a contiguous row-major block of
/// `count` points with a fixed dimensionality (the array index into
/// DistanceKernels). Both variants are bit-identical: they accumulate
/// (a[k]-b[k])^2 in ascending-k order with separate multiply and add
/// roundings (no FMA contraction), so `scalar` and the dispatched SIMD
/// table agree exactly, including on eps boundaries.
///
/// CountWithinFn: number of block points with squared distance <= eps2
/// from `query`. When cap > 0, returns as soon as the running count
/// reaches cap at a batch boundary; the result is then >= cap and <= the
/// true count (callers only test `result >= cap`).
using CountWithinFn = uint32_t (*)(const double* query, const double* block,
                                   size_t count, double eps2, uint32_t cap);
/// True when any block point has squared distance <= eps2 from `query`.
using AnyWithinFn = bool (*)(const double* query, const double* block,
                             size_t count, double eps2);
/// Minimum squared distance from `query` to the block; +infinity when the
/// block is empty. Exact (min is order-independent for finite inputs).
using MinSqDistFn = double (*)(const double* query, const double* block,
                               size_t count);
/// Per-point membership: writes flags[i] = 1 when block point i has squared
/// distance <= eps2 from `query`, else 0, and returns the number of hits.
/// No early exit (callers need every flag), so both variants always evaluate
/// the full block. `flags` must have `count` writable bytes.
using WithinFlagsFn = uint32_t (*)(const double* query, const double* block,
                                   size_t count, double eps2, uint8_t* flags);

/// A full kernel set: one function pointer per primitive per dimensionality,
/// indexed by dims in [0, kKernelMaxDims]. The fixed-dim instantiations keep
/// the per-point inner loop fully unrolled.
struct DistanceKernels {
  const char* name;  // "scalar" or "avx2"
  CountWithinFn count_within[kKernelMaxDims + 1];
  AnyWithinFn any_within[kKernelMaxDims + 1];
  MinSqDistFn min_sqdist[kKernelMaxDims + 1];
  WithinFlagsFn within_flags[kKernelMaxDims + 1];
};

/// The scalar reference table (always available; the oracle in tests).
const DistanceKernels& ScalarKernels();

/// The table for this CPU, chosen once at first use by runtime dispatch:
/// AVX2 when the build compiled it and the CPU reports it, else the scalar
/// reference. Returns the scalar table while scalar kernels are forced.
const DistanceKernels& DispatchedKernels();

/// Overrides DispatchedKernels() to return the scalar table (for tests and
/// benchmarking). Off by default.
void ForceScalarKernels(bool force);
bool ScalarKernelsForced();

// --- Convenience wrapper taking dims at runtime. ---

inline uint32_t CountWithinEps2(const double* query, const double* block,
                                size_t count, size_t dims, double eps2,
                                uint32_t cap) {
  return DispatchedKernels().count_within[dims](query, block, count, eps2,
                                                cap);
}

}  // namespace dbscout::simd

#endif  // DBSCOUT_SIMD_DISTANCE_KERNEL_H_
