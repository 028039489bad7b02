#ifndef DBSCOUT_GRID_PARTITION_H_
#define DBSCOUT_GRID_PARTITION_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "grid/regions.h"

namespace dbscout::grid {

/// A fixed partition of cell space into contiguous dim-0 slab regions —
/// the shared region math behind the external engine's spill stripes and
/// the service's detector shards. Regions are planned once from a slab
/// histogram (capped greedy load balancing) and never change; region 0
/// conceptually extends to -inf and the last region to +inf, so every
/// slab — including ones never seen at plan time — has exactly one home
/// region.
///
/// Exactness contract (the same ghost-zone argument as the external
/// engine, DESIGN.md): a partition participant that holds every point
/// within HaloSlabs(d) = 2*ceil(sqrt(d)) slabs of its owned range can
/// label its owned points exactly. Owned labels need ring-1 presence and
/// ring-1 core status; ring-1 core status needs ring-2 presence; ring-2
/// core status is never consulted. CoveringRegions() enumerates, for one
/// slab, every region whose halo-extended range contains it — i.e. every
/// region that must hold a replica of a point homed in that slab.
///
/// This header is routing hot path (called per ingested point by the
/// service's scatter loop): keep it silent and wait-free.
class RegionPlan {
 public:
  RegionPlan() = default;

  /// Plans at most `num_regions` regions balanced over `slab_histogram`
  /// (adaptive greedy accumulation with a hard cap — never more regions
  /// than requested, fewer when the histogram has fewer populated slabs).
  /// An empty histogram yields an empty, invalid plan (num_regions() == 0).
  static RegionPlan Build(const std::map<int64_t, uint64_t>& slab_histogram,
                          size_t num_regions, size_t dims);

  size_t num_regions() const { return stripes_.size(); }
  bool empty() const { return stripes_.empty(); }
  int64_t halo() const { return halo_; }
  const std::vector<Stripe>& stripes() const { return stripes_; }

  /// The region owning `slab`. Slabs below the planned range belong to
  /// region 0, above it to the last region; slabs in inter-stripe gaps
  /// (unpopulated at plan time) belong to the next region up.
  size_t RegionOf(int64_t slab) const;

  /// Appends to *out every region that must hold a point homed in `slab`:
  /// the home region plus every region whose halo-extended owned range
  /// covers the slab. Home is always first; out is not cleared.
  void CoveringRegions(int64_t slab, std::vector<size_t>* out) const;

 private:
  /// Effective owned bounds of region r: gaps between stripes are owned
  /// by the stripe above them (matching RegionOf), and the end regions
  /// extend to +/-inf.
  int64_t OwnedLo(size_t r) const;
  int64_t OwnedHi(size_t r) const;

  std::vector<Stripe> stripes_;
  int64_t halo_ = 0;
};

/// Dim-0 slab of a point coordinate: the same floor(p[0] / side) every
/// grid engine uses, with side = eps / sqrt(d).
inline int64_t SlabOfCoord(double x0, double side) {
  return static_cast<int64_t>(std::floor(x0 / side));
}

}  // namespace dbscout::grid

#endif  // DBSCOUT_GRID_PARTITION_H_
