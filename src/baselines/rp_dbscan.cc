#include "baselines/rp_dbscan.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "grid/cell_coord.h"
#include "grid/neighbor_cells.h"

namespace dbscout::baselines {
namespace {

using grid::CellCoord;
using grid::CellCoordHash;

struct SubCell {
  uint32_t count = 0;
  uint32_t representative = 0;  // point index of the first point seen
  uint8_t core = 0;             // representative classified core
};

CellCoord CoordOf(std::span<const double> p, double side, size_t dims) {
  CellCoord c = CellCoord::Zero(dims);
  for (size_t k = 0; k < dims; ++k) {
    c[k] = static_cast<int64_t>(std::floor(p[k] / side));
  }
  return c;
}

/// Union-find over sub-cell ids for the cell-graph clustering step.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(uint32_t a, uint32_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<uint32_t> parent_;
};

}  // namespace

Status RpDbscanParams::Validate() const {
  if (!(eps > 0.0)) {
    return Status::InvalidArgument("eps must be > 0");
  }
  if (min_pts < 1) {
    return Status::InvalidArgument("min_pts must be >= 1");
  }
  if (!(rho > 0.0) || rho > 1.0) {
    return Status::InvalidArgument(
        StrFormat("rho must be in (0, 1], got %g", rho));
  }
  if (num_partitions < 1) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }
  return Status::OK();
}

Result<RpDbscanResult> RpDbscan(const PointSet& points,
                                const RpDbscanParams& params) {
  DBSCOUT_RETURN_IF_ERROR(params.Validate());
  const size_t d = points.dims();
  if (d < 1 || d > kMaxDims) {
    return Status::InvalidArgument(
        StrFormat("dims=%zu out of supported range [1, %zu]", d, kMaxDims));
  }
  WallTimer timer;
  RpDbscanResult result;
  const size_t n = points.size();
  result.is_outlier.assign(n, 0);
  if (n == 0) {
    return result;
  }
  const double eps2 = params.eps * params.eps;
  const double side = params.eps / std::sqrt(static_cast<double>(d));
  const double sub_side = side * params.rho;
  const uint32_t min_pts = static_cast<uint32_t>(params.min_pts);

  // ---- Random partitioning + per-partition sub-cell dictionaries. ------
  Rng rng(params.seed);
  std::vector<std::vector<uint32_t>> partitions(params.num_partitions);
  for (uint32_t i = 0; i < n; ++i) {
    partitions[rng.NextBounded(params.num_partitions)].push_back(i);
  }
  using LocalDict = std::unordered_map<CellCoord, SubCell, CellCoordHash>;
  std::vector<LocalDict> local_dicts(params.num_partitions);
  for (size_t p = 0; p < params.num_partitions; ++p) {
    for (uint32_t i : partitions[p]) {
      const CellCoord sub = CoordOf(points[i], sub_side, d);
      auto [it, inserted] = local_dicts[p].try_emplace(sub);
      if (inserted) {
        it->second.representative = i;
      }
      ++it->second.count;
    }
    result.merged_entries += local_dicts[p].size();
  }

  // ---- Merge into the global two-level dictionary (broadcast stand-in).
  LocalDict dictionary;
  for (const auto& local : local_dicts) {
    for (const auto& [sub, info] : local) {
      auto [it, inserted] = dictionary.try_emplace(sub, info);
      if (!inserted) {
        it->second.count += info.count;  // keep the first representative
      }
    }
  }
  result.num_subcells = dictionary.size();

  // Flatten for indexed access and group sub-cells by their eps-cell.
  std::vector<CellCoord> sub_coords;
  std::vector<SubCell> sub_cells;
  std::vector<CellCoord> cell_coords;
  sub_coords.reserve(dictionary.size());
  sub_cells.reserve(dictionary.size());
  for (const auto& [sub, info] : dictionary) {
    sub_coords.push_back(sub);
    sub_cells.push_back(info);
    cell_coords.push_back(CoordOf(points[info.representative], side, d));
  }
  // Eps-cell ids in ascending coordinate order, as grid::Grid numbers them.
  std::sort(cell_coords.begin(), cell_coords.end());
  cell_coords.erase(std::unique(cell_coords.begin(), cell_coords.end()),
                    cell_coords.end());
  std::vector<std::vector<uint32_t>> cell_subs(cell_coords.size());
  std::vector<uint32_t> cell_counts(cell_coords.size(), 0);
  std::vector<uint32_t> sub_cell_of(sub_cells.size());  // -> eps-cell id
  for (uint32_t s = 0; s < sub_cells.size(); ++s) {
    const uint32_t cell = static_cast<uint32_t>(
        std::lower_bound(
            cell_coords.begin(), cell_coords.end(),
            CoordOf(points[sub_cells[s].representative], side, d)) -
        cell_coords.begin());
    cell_subs[cell].push_back(s);
    cell_counts[cell] += sub_cells[s].count;
    sub_cell_of[s] = cell;
  }
  result.num_cells = cell_coords.size();
  const grid::NeighborCells neighbors =
      grid::NeighborCells::Build(cell_coords);
  auto cell_is_dense = [&](uint32_t cell) {
    return cell_counts[cell] >= min_pts;
  };

  // Approximate neighbor count of a query location: every sub-cell whose
  // representative lies within eps contributes its full count.
  auto approx_count = [&](std::span<const double> query, uint32_t cell) {
    uint64_t count = 0;
    for (const grid::CellRun& run : neighbors.Of(cell)) {
      for (uint32_t nc = run.begin; nc < run.end; ++nc) {
        for (uint32_t s : cell_subs[nc]) {
          const auto rep = points[sub_cells[s].representative];
          if (PointSet::SquaredDistance(query, rep) <= eps2) {
            count += sub_cells[s].count;
            if (count >= min_pts) {
              return count;
            }
          }
        }
      }
    }
    return count;
  };

  // ---- Core marking of sub-cell representatives. ------------------------
  for (uint32_t s = 0; s < sub_cells.size(); ++s) {
    const uint32_t rep = sub_cells[s].representative;
    const uint32_t cell = sub_cell_of[s];
    if (cell_is_dense(cell) || approx_count(points[rep], cell) >= min_pts) {
      sub_cells[s].core = 1;
    }
  }

  // ---- Cell-graph clustering over core representatives. ----------------
  // Two core sub-cells of the same eps-cell are always within eps of each
  // other (the cell diagonal is eps), so each cell's core sub-cells form
  // one component outright; cross-cell edges then need only the first
  // successful representative pair per cell pair — exactly the cell-level
  // merging that keeps RP-DBSCAN's cell graph tractable.
  UnionFind uf(sub_cells.size());
  for (const std::vector<uint32_t>& subs : cell_subs) {
    uint32_t first_core = UINT32_MAX;
    for (uint32_t s : subs) {
      if (!sub_cells[s].core) {
        continue;
      }
      if (first_core == UINT32_MAX) {
        first_core = s;
      } else {
        uf.Union(first_core, s);
      }
    }
  }
  for (uint32_t cell = 0; cell < cell_subs.size(); ++cell) {
    const std::vector<uint32_t>& subs = cell_subs[cell];
    uint32_t anchor = UINT32_MAX;
    for (uint32_t s : subs) {
      if (sub_cells[s].core) {
        anchor = s;
        break;
      }
    }
    if (anchor == UINT32_MAX) {
      continue;  // no core sub-cell in this cell
    }
    for (const grid::CellRun& run : neighbors.Of(cell)) {
      // Only the cells after this one: visit each cell pair once.
      for (uint32_t nc = std::max(run.begin, cell + 1); nc < run.end; ++nc) {
        bool linked = false;
        for (uint32_t s : subs) {
          if (!sub_cells[s].core) {
            continue;
          }
          const auto rep = points[sub_cells[s].representative];
          for (uint32_t t : cell_subs[nc]) {
            if (!sub_cells[t].core) {
              continue;
            }
            if (PointSet::SquaredDistance(
                    rep, points[sub_cells[t].representative]) <= eps2) {
              uf.Union(s, t);
              linked = true;
              break;  // one edge joins the two cells' components
            }
          }
          if (linked) {
            break;
          }
        }
      }
    }
  }
  std::unordered_map<uint32_t, uint32_t> roots;
  for (uint32_t s = 0; s < sub_cells.size(); ++s) {
    if (sub_cells[s].core) {
      roots.emplace(uf.Find(s), static_cast<uint32_t>(roots.size()));
    }
  }
  result.num_clusters = roots.size();

  // ---- Sub-cell classification. -----------------------------------------
  // RP-DBSCAN's point-count reduction: every decision is made once per
  // sub-cell through its representative, and all points of the sub-cell
  // inherit the label. A non-core sub-cell is "covered" (border) when its
  // representative lies within eps of some core representative. This
  // rep-to-rep granularity is what makes the output approximate: borderline
  // border points get declared noise when their representatives sit just
  // beyond eps (false-positive outliers — the superset tendency of Tables
  // IV-V), while a true outlier sharing a sub-cell with covered points is
  // absorbed into the border (the rare false negatives).
  std::vector<uint8_t> sub_is_outlier(sub_cells.size(), 0);
  for (uint32_t s = 0; s < sub_cells.size(); ++s) {
    if (sub_cells[s].core) {
      continue;
    }
    const auto rep = points[sub_cells[s].representative];
    const uint32_t cell = sub_cell_of[s];
    if (cell_is_dense(cell)) {
      continue;  // exact: dense cells contain no noise (Lemma 1)
    }
    bool covered = false;
    for (const grid::CellRun& run : neighbors.Of(cell)) {
      for (uint32_t nc = run.begin; nc < run.end && !covered; ++nc) {
        for (uint32_t t : cell_subs[nc]) {
          if (sub_cells[t].core &&
              PointSet::SquaredDistance(
                  rep, points[sub_cells[t].representative]) <= eps2) {
            covered = true;
            break;
          }
        }
      }
      if (covered) {
        break;
      }
    }
    sub_is_outlier[s] = covered ? 0 : 1;
  }

  // ---- Point labeling: inherit the sub-cell's label. ---------------------
  std::unordered_map<CellCoord, uint32_t, CellCoordHash> sub_ids;
  sub_ids.reserve(sub_coords.size());
  for (uint32_t s = 0; s < sub_coords.size(); ++s) {
    sub_ids.emplace(sub_coords[s], s);
  }
  for (uint32_t i = 0; i < n; ++i) {
    const CellCoord sub = CoordOf(points[i], sub_side, d);
    auto it = sub_ids.find(sub);
    if (it != sub_ids.end() && sub_is_outlier[it->second]) {
      result.is_outlier[i] = 1;
      result.outliers.push_back(i);
    }
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace dbscout::baselines
