#include "grid/regions.h"

namespace dbscout::grid {

std::vector<Stripe> PlanStripes(
    const std::map<int64_t, uint64_t>& slab_histogram, uint64_t target) {
  std::vector<Stripe> stripes;
  if (slab_histogram.empty()) {
    return stripes;
  }
  Stripe current;
  current.slab_lo = slab_histogram.begin()->first;
  uint64_t filled = 0;
  int64_t last_slab = current.slab_lo;
  for (const auto& [slab, count] : slab_histogram) {
    if (filled > 0 && filled + count > target) {
      current.slab_hi = last_slab;
      stripes.push_back(current);
      current.slab_lo = slab;
      filled = 0;
    }
    filled += count;
    last_slab = slab;
  }
  current.slab_hi = last_slab;
  stripes.push_back(current);
  return stripes;
}

size_t FirstStripeAtOrAfter(std::span<const Stripe> stripes, int64_t slab) {
  size_t lo = 0;
  size_t hi = stripes.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (stripes[mid].slab_hi < slab) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace dbscout::grid
