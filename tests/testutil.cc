#include "testutil.h"

#include <cmath>

#include <gtest/gtest.h>

namespace dbscout::testing {

std::vector<core::PointKind> BruteForceKinds(const PointSet& points,
                                             double eps, int min_pts) {
  const size_t n = points.size();
  const double eps2 = eps * eps;
  std::vector<uint8_t> is_core(n, 0);
  for (size_t i = 0; i < n; ++i) {
    int count = 0;
    for (size_t j = 0; j < n; ++j) {
      if (points.SquaredDistance(i, j) <= eps2) {
        ++count;
      }
    }
    is_core[i] = count >= min_pts;
  }
  std::vector<core::PointKind> kinds(n, core::PointKind::kOutlier);
  for (size_t i = 0; i < n; ++i) {
    if (is_core[i]) {
      kinds[i] = core::PointKind::kCore;
      continue;
    }
    for (size_t j = 0; j < n; ++j) {
      if (is_core[j] && points.SquaredDistance(i, j) <= eps2) {
        kinds[i] = core::PointKind::kBorder;
        break;
      }
    }
  }
  return kinds;
}

std::vector<uint32_t> BruteForceOutliers(const PointSet& points, double eps,
                                         int min_pts) {
  const auto kinds = BruteForceKinds(points, eps, min_pts);
  std::vector<uint32_t> outliers;
  for (size_t i = 0; i < kinds.size(); ++i) {
    if (kinds[i] == core::PointKind::kOutlier) {
      outliers.push_back(static_cast<uint32_t>(i));
    }
  }
  return outliers;
}

PointSet UniformPoints(Rng* rng, size_t n, size_t dims, double lo, double hi) {
  PointSet out(dims);
  out.Reserve(n);
  std::vector<double> coords(dims);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < dims; ++k) {
      coords[k] = rng->Uniform(lo, hi);
    }
    out.Add(coords);
  }
  return out;
}

PointSet ClusteredPoints(Rng* rng, size_t n, size_t dims, int clusters,
                         double noise_fraction) {
  PointSet out(dims);
  out.Reserve(n);
  std::vector<std::vector<double>> centers(clusters,
                                           std::vector<double>(dims));
  for (auto& center : centers) {
    for (auto& c : center) {
      c = rng->Uniform(-50.0, 50.0);
    }
  }
  std::vector<double> coords(dims);
  for (size_t i = 0; i < n; ++i) {
    if (rng->NextBool(noise_fraction)) {
      for (size_t k = 0; k < dims; ++k) {
        coords[k] = rng->Uniform(-60.0, 60.0);
      }
    } else {
      const auto& center = centers[rng->NextBounded(centers.size())];
      for (size_t k = 0; k < dims; ++k) {
        coords[k] = rng->Gaussian(center[k], 1.5);
      }
    }
    out.Add(coords);
  }
  return out;
}

PointSet LatticePoints(size_t per_side, size_t dims, double step) {
  PointSet out(dims);
  std::vector<size_t> index(dims, 0);
  std::vector<double> coords(dims);
  for (;;) {
    for (size_t k = 0; k < dims; ++k) {
      coords[k] = static_cast<double>(index[k]) * step;
    }
    out.Add(coords);
    size_t k = 0;
    while (k < dims && ++index[k] == per_side) {
      index[k] = 0;
      ++k;
    }
    if (k == dims) {
      break;
    }
  }
  return out;
}

std::vector<uint64_t> Widen(const std::vector<uint32_t>& ids) {
  return std::vector<uint64_t>(ids.begin(), ids.end());
}

std::vector<uint32_t> ExpandRuns(std::span<const grid::CellRun> runs) {
  std::vector<uint32_t> ids;
  for (const grid::CellRun& run : runs) {
    for (uint32_t c = run.begin; c < run.end; ++c) {
      ids.push_back(c);
    }
  }
  return ids;
}

grid::CellCoord CellAt(const grid::Grid& grid,
                       std::span<const double> point) {
  grid::CellCoord cell;
  EXPECT_TRUE(grid::CellOfPoint(point, grid.side(), &cell).ok());
  return cell;
}

}  // namespace dbscout::testing
