#include "grid/neighbor_cells.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "grid/gap_pruning.h"

namespace dbscout::grid {
namespace {

// Cells per task: coarse enough to amortize the claim and the pencil walks,
// fine enough to balance clustered grids on a pool.
constexpr size_t kCellsPerTask = 256;

/// A neighbor pencil of the pencil being swept: its cells, up to `end`,
/// share one (d-1)-prefix, which lies at gap `gap` (< d) from the swept
/// pencil's. `window` holds the swept cell's neighbors in it; it starts
/// empty at the pencil's first cell.
struct NeighborPencil {
  CellRun window;
  uint32_t end;
  int64_t gap;
};

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

  /// End of the pencil that holds position `i`. At d = 1 every cell lies
  /// in the one pencil.
  size_t PencilEnd(size_t i) const {
    return dims_ == 1 ? n_ : run_end_[(dims_ - 2) * n_ + i];
  }

  /// Appends the runs of the scanned cells among [lo, hi), which lie in
  /// one pencil, to `runs`, and sets counts[c + 1] to the number of runs of
  /// each scanned cell c. `pencils` is scratch storage.
  void AppendRuns(std::span<const uint8_t> scan, size_t lo, size_t hi,
                  std::vector<NeighborPencil>* pencils,
                  std::vector<CellRun>* runs, size_t* counts) const {
    const auto scanned = [&](size_t c) { return scan.empty() || scan[c]; };
    while (lo < hi && !scanned(lo)) {
      ++lo;
    }
    if (lo == hi) {
      return;
    }
    pencils->clear();
    Walk(lo, 0, 0, n_, 0, pencils);
    // The cells ascend in their last coordinate, so both ends of every
    // window only move forward.
    const int64_t* last = cols_.data() + (dims_ - 1) * n_;
    for (size_t c = lo; c < hi; ++c) {
      if (!scanned(c)) {
        continue;
      }
      const size_t before = runs->size();
      for (NeighborPencil& pencil : *pencils) {
        const GapPruning::Window w = pruning_.At(last[c], pencil.gap);
        CellRun& run = pencil.window;
        while (run.begin < pencil.end && last[run.begin] < w.lo) {
          ++run.begin;
        }
        while (run.end < pencil.end && last[run.end] <= w.hi) {
          ++run.end;
        }
        if (run.begin == run.end) {
          continue;
        }
        if (runs->size() > before && runs->back().end == run.begin) {
          runs->back().end = run.end;  // touches the previous run: merge
        } else {
          runs->push_back(run);
        }
      }
      counts[c + 1] = runs->size() - before;
    }
  }

 private:
  // Visits the nodes under the trie node at level k that spans sorted
  // positions [lo, hi), whose prefix lies at gap `gap` (< d) from that of
  // the cell at position x. A node at level d-1 is a pencil: it is
  // appended whole.
  void Walk(size_t x, size_t k, size_t lo, size_t hi, int64_t gap,
            std::vector<NeighborPencil>* out) const {
    if (k + 1 == dims_) {
      const uint32_t begin = static_cast<uint32_t>(lo);
      out->push_back({{begin, begin}, static_cast<uint32_t>(hi), gap});
      return;
    }
    const int64_t* col = cols_.data() + k * n_;
    const int64_t xk = col[x];
    // The children inside the window are exactly those that keep the gap
    // below d, so no branch is entered only to be cut.
    const GapPruning::Window window = pruning_.At(xk, gap);
    size_t i = static_cast<size_t>(
        std::lower_bound(col + lo, col + hi, window.lo) - col);
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
  const size_t tasks = (n + kCellsPerTask - 1) / kCellsPerTask;
  std::vector<std::vector<CellRun>> task_runs(tasks);
  // Task t sweeps the cells [t*n/tasks, (t+1)*n/tasks) into its own buffer
  // and writes only their slots, so tasks never share one. A pencil that
  // straddles two tasks is walked by both.
  auto sweep = [&](size_t t) {
    std::vector<NeighborPencil> pencils;
    const size_t end = (t + 1) * n / tasks;
    for (size_t c = t * n / tasks; c < end;) {
      const size_t pencil_end = std::min(sorted.PencilEnd(c), end);
      sorted.AppendRuns(scan, c, pencil_end, &pencils, &task_runs[t],
                        out.begin_.data());
      c = pencil_end;
    }
  };
  // One task per claim: a task's cost follows how crowded its cells'
  // neighborhoods are.
  RunTasks(pool, tasks, sweep);
  std::partial_sum(out.begin_.begin(), out.begin_.end(), out.begin_.begin());
  if (tasks == 1) {
    out.runs_ = std::move(task_runs[0]);
  } else {
    out.runs_.reserve(out.begin_[n]);
    for (const std::vector<CellRun>& runs : task_runs) {
      out.runs_.insert(out.runs_.end(), runs.begin(), runs.end());
    }
  }
  return out;
}

}  // namespace dbscout::grid
