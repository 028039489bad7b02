#include "grid/neighbor_cells.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "grid/gap_pruning.h"

namespace dbscout::grid {
namespace {

// Cells per task when the build runs on a pool: coarse enough to amortize
// the claim, fine enough to balance clustered grids.
constexpr size_t kCellsPerTask = 256;

/// The sorted cells stored column by column: within the range of one
/// prefix (the cells sharing coordinates 0..k-1), column k is itself
/// sorted, so every trie level is a binary search. A cell's id is its
/// position.
class SortedCells {
 public:
  explicit SortedCells(std::span<const CellCoord> coords)
      : n_(coords.size()),
        dims_(coords[0].dims()),
        cols_(n_ * dims_),
        run_end_(n_ * dims_),
        pruning_(dims_) {
    for (size_t i = 0; i < n_; ++i) {
      DBSCOUT_CHECK(i == 0 || coords[i - 1] < coords[i])
          << "NeighborCells needs strictly ascending cells, got "
          << coords[i - 1] << " then " << coords[i];
      for (size_t k = 0; k < dims_; ++k) {
        cols_[k * n_ + i] = coords[i][k];
      }
    }
    // Column k of run_end_ holds, for each position, the end of the run of
    // cells sharing its coordinates 0..k: the trie node's last child + 1.
    for (size_t i = n_; i-- > 0;) {
      bool same = i + 1 < n_;
      for (size_t k = 0; k < dims_; ++k) {
        const size_t at = k * n_ + i;
        same = same && cols_[at] == cols_[at + 1];
        run_end_[at] = same ? run_end_[at + 1] : static_cast<uint32_t>(i + 1);
      }
    }
  }

  /// Appends the ids of the neighbors of `x` (itself included, when
  /// present) in ascending coordinate order.
  void AppendNeighbors(const CellCoord& x, std::vector<uint32_t>* out) const {
    Walk(x, 0, 0, n_, 0, out);
  }

 private:
  // Visits the cells at sorted positions [lo, hi): the subtree of one trie
  // node at level k, whose prefix lies at gap `gap` (< d) from x's.
  void Walk(const CellCoord& x, size_t k, size_t lo, size_t hi, int64_t gap,
            std::vector<uint32_t>* out) const {
    const int64_t* col = cols_.data() + k * n_;
    const int64_t xk = x[k];
    // The children inside the window are exactly those that keep the gap
    // below d, so no branch is entered only to be cut.
    const GapPruning::Window window = pruning_.At(xk, gap);
    size_t i = static_cast<size_t>(
        std::lower_bound(col + lo, col + hi, window.lo) - col);
    if (k + 1 == dims_) {
      for (; i < hi && col[i] <= window.hi; ++i) {  // leaves: one cell each
        out->push_back(static_cast<uint32_t>(i));
      }
      return;
    }
    const uint32_t* run_end = run_end_.data() + k * n_;
    while (i < hi && col[i] <= window.hi) {
      const size_t end = run_end[i];
      Walk(x, k + 1, i, end, gap + GapPruning::AxisGap(col[i] - xk), out);
      i = end;
    }
  }

  size_t n_;
  size_t dims_;
  std::vector<int64_t> cols_;      // dims_ columns of n_ coordinates
  std::vector<uint32_t> run_end_;  // dims_ columns of n_ run ends
  GapPruning pruning_;
};

}  // namespace

NeighborCells NeighborCells::Build(std::span<const CellCoord> coords,
                                   std::span<const uint8_t> scan,
                                   ThreadPool* pool) {
  NeighborCells out;
  const size_t n = coords.size();
  out.begin_.assign(n + 1, 0);
  if (n == 0) {
    return out;
  }
  const SortedCells sorted(coords);
  const size_t tasks =
      pool != nullptr ? (n + kCellsPerTask - 1) / kCellsPerTask : 1;
  std::vector<std::vector<uint32_t>> task_ids(tasks);
  // Task t walks the cells [t*n/tasks, (t+1)*n/tasks) into its own buffer
  // and writes only their slots, so tasks never share one. In id order,
  // consecutive walks search the same columns.
  auto walk = [&](size_t t) {
    std::vector<uint32_t>& ids = task_ids[t];
    for (size_t c = t * n / tasks; c < (t + 1) * n / tasks; ++c) {
      if (!scan.empty() && scan[c] == 0) {
        continue;
      }
      const size_t before = ids.size();
      sorted.AppendNeighbors(coords[c], &ids);
      out.begin_[c + 1] = ids.size() - before;
    }
  };
  if (pool != nullptr) {
    // One task per claim: a task's cost follows how crowded its cells'
    // neighborhoods are.
    pool->ParallelForDynamic(tasks, 1, [&](size_t begin, size_t end) {
      for (size_t t = begin; t < end; ++t) {
        walk(t);
      }
    });
  } else {
    walk(0);
  }
  std::partial_sum(out.begin_.begin(), out.begin_.end(), out.begin_.begin());
  if (tasks == 1) {
    out.ids_ = std::move(task_ids[0]);
  } else {
    out.ids_.reserve(out.begin_[n]);
    for (const std::vector<uint32_t>& ids : task_ids) {
      out.ids_.insert(out.ids_.end(), ids.begin(), ids.end());
    }
  }
  return out;
}

}  // namespace dbscout::grid
