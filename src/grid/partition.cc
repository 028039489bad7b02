#include "grid/partition.h"

#include <limits>

namespace dbscout::grid {

RegionPlan RegionPlan::Build(
    const std::map<int64_t, uint64_t>& slab_histogram, size_t num_regions,
    size_t dims) {
  RegionPlan plan;
  plan.halo_ = HaloSlabs(dims);
  if (num_regions == 0) {
    num_regions = 1;
  }
  if (slab_histogram.empty()) {
    return plan;
  }
  // Adaptive greedy with a hard region cap. PlanStripes' fixed-target
  // greedy may emit MORE stripes than requested (each early stripe stops
  // short of the target, pushing the excess into extra stripes), which
  // would be fatal here: RegionOf indexes shard arrays sized num_regions.
  // Instead each stripe targets remaining/remaining_regions — re-balanced
  // as stripes close — and the last permitted stripe absorbs the rest, so
  // the plan never exceeds num_regions.
  uint64_t remaining = 0;
  for (const auto& [slab, count] : slab_histogram) {
    remaining += count;
  }
  size_t remaining_regions = num_regions;
  Stripe current;
  current.slab_lo = slab_histogram.begin()->first;
  uint64_t filled = 0;
  int64_t last_slab = current.slab_lo;
  for (const auto& [slab, count] : slab_histogram) {
    const uint64_t target =
        (remaining + remaining_regions - 1) / remaining_regions;
    if (filled > 0 && remaining_regions > 1 && filled + count > target) {
      current.slab_hi = last_slab;
      plan.stripes_.push_back(current);
      current.slab_lo = slab;
      remaining -= filled;
      filled = 0;
      --remaining_regions;
    }
    filled += count;
    last_slab = slab;
  }
  current.slab_hi = last_slab;
  plan.stripes_.push_back(current);
  return plan;
}

size_t RegionPlan::RegionOf(int64_t slab) const {
  const size_t r = FirstStripeAtOrAfter(stripes_, slab);
  return r < stripes_.size() ? r : stripes_.size() - 1;
}

int64_t RegionPlan::OwnedLo(size_t r) const {
  return r == 0 ? std::numeric_limits<int64_t>::min()
                : stripes_[r - 1].slab_hi + 1;
}

int64_t RegionPlan::OwnedHi(size_t r) const {
  return r + 1 == stripes_.size() ? std::numeric_limits<int64_t>::max()
                                  : stripes_[r].slab_hi;
}

void RegionPlan::CoveringRegions(int64_t slab,
                                 std::vector<size_t>* out) const {
  const size_t home = RegionOf(slab);
  out->push_back(home);
  // Slab magnitudes come from finite coordinates over a positive cell
  // side, far from the int64 edges, so the +/- halo arithmetic is safe;
  // the end regions' infinite bounds are handled explicitly.
  for (size_t r = 0; r < stripes_.size(); ++r) {
    if (r == home) {
      continue;
    }
    const int64_t lo = OwnedLo(r);
    const int64_t hi = OwnedHi(r);
    const bool above_lo =
        lo == std::numeric_limits<int64_t>::min() || slab >= lo - halo_;
    const bool below_hi =
        hi == std::numeric_limits<int64_t>::max() || slab <= hi + halo_;
    if (above_lo && below_hi) {
      out->push_back(r);
    }
  }
}

}  // namespace dbscout::grid
