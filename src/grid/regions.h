#ifndef DBSCOUT_GRID_REGIONS_H_
#define DBSCOUT_GRID_REGIONS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

namespace dbscout::grid {

/// Region math shared by the engines that partition cell space along
/// dimension 0: the external (out-of-core) engine stripes its spill files
/// by dim-0 cell slab, and the incremental engine's apply pipeline
/// colors slab blocks into non-conflicting waves. Both rely on the same
/// geometric fact: with cell side eps/sqrt(d), a point's eps-neighborhood
/// spans at most SlabReach(d) slabs in each direction along dim 0
/// (the stencil offsets range over [-ceil(sqrt(d)), +ceil(sqrt(d))]).

/// Contiguous range of dim-0 cell-slabs owned by one stripe.
struct Stripe {
  int64_t slab_lo = 0;
  int64_t slab_hi = 0;  // inclusive
};

/// Maximum dim-0 stencil offset, in slabs: ceil(sqrt(d)).
inline int64_t SlabReach(size_t dims) {
  return static_cast<int64_t>(std::ceil(std::sqrt(static_cast<double>(dims))));
}

/// Slabs of context a partition needs on each side so that every point
/// whose label depends on the partition's owned cells — including
/// second-order effects (a core decision in the first halo ring) — is
/// present locally: two stencil reaches. This is THE halo width of the
/// codebase; the external engine's spill ghost zones and the incremental
/// engine's slab-block width both use it.
inline int64_t HaloSlabs(size_t dims) { return 2 * SlabReach(dims); }

/// Greedy stripe planning over an ordered dim-0 slab histogram: accumulate
/// consecutive slabs until adding the next would exceed `target` points,
/// then start a new stripe. Returns stripes sorted by slab, contiguous over
/// the histogram's populated range; empty when the histogram is empty.
std::vector<Stripe> PlanStripes(
    const std::map<int64_t, uint64_t>& slab_histogram, uint64_t target);

/// Index of the first stripe whose slab_hi >= slab (stripes sorted by
/// slab); stripes.size() when none. Binary search.
size_t FirstStripeAtOrAfter(std::span<const Stripe> stripes, int64_t slab);

/// Fixed-width slab blocks for the incremental engine's wave apply.
/// Block b owns slabs [b*width, (b+1)*width); floor division so negative
/// slabs block correctly.
inline int64_t SlabBlock(int64_t slab, int64_t width) {
  const int64_t q = slab / width;
  return (slab % width != 0 && (slab < 0) != (width < 0)) ? q - 1 : q;
}

/// Wave color for a slab block. With block width >= HaloSlabs(d), a task
/// processing points homed in block b writes state only in blocks
/// [b-1, b+1] (insert scans reach SlabReach slabs; promotion rescues reach
/// another SlabReach), so two tasks conflict only when their blocks are
/// within 2 of each other. Three colors make same-color blocks >= 3 apart:
/// conflict-free, so each wave's tasks can run concurrently.
inline constexpr int kNumWaves = 3;
inline int WaveOf(int64_t block) {
  return static_cast<int>(((block % kNumWaves) + kNumWaves) % kNumWaves);
}

}  // namespace dbscout::grid

#endif  // DBSCOUT_GRID_REGIONS_H_
