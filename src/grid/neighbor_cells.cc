#include "grid/neighbor_cells.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace dbscout::grid {
namespace {

// Cells per task: coarse enough to amortize the claim and the pencil walks,
// fine enough to balance clustered grids on a pool.
constexpr size_t kCellsPerTask = 256;

}  // namespace

SortedCells::SortedCells(std::span<const CellCoord> coords)
    : n_(coords.size()),
      dims_(coords.empty() ? 1 : coords[0].dims()),
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

// Visits the nodes under the trie node at level k that spans sorted
// positions [lo, hi), whose prefix lies at gap `gap` (< d) from that of
// the cell at position x. A node at level d-1 is a pencil: it is appended
// whole.
void SortedCells::Walk(size_t x, size_t k, size_t lo, size_t hi,
                       int64_t gap, std::vector<NeighborPencil>* out) const {
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

void NeighborCursor::Seek(uint32_t c) {
  pencil_end_ = cells_->PencilEnd(c);
  if (order_ == Order::kAscending) {
    pencils_.clear();
    cells_->Walk(c, &pencils_);
    return;
  }
  // A stable counting sort over the gaps, which lie in [0, d).
  walked_.clear();
  cells_->Walk(c, &walked_);
  size_t start[kMaxDims + 1] = {};
  for (const NeighborPencil& pencil : walked_) {
    ++start[pencil.gap + 1];
  }
  std::partial_sum(start, start + kMaxDims + 1, start);
  pencils_.resize(walked_.size());
  for (const NeighborPencil& pencil : walked_) {
    pencils_[start[pencil.gap]++] = pencil;
  }
}

NeighborCells NeighborCells::Build(std::span<const CellCoord> coords,
                                   std::span<const uint8_t> scan,
                                   ThreadPool* pool) {
  NeighborCells out;
  const size_t n = coords.size();
  out.begin_.assign(n + 1, 0);
  const SortedCells sorted(coords);
  const size_t tasks = (n + kCellsPerTask - 1) / kCellsPerTask;
  std::vector<std::vector<CellRun>> task_runs(tasks);
  // Task t collects the runs of the cells [t*n/tasks, (t+1)*n/tasks) into
  // its own buffer and writes only their slots, so tasks never share one.
  // A pencil that straddles two tasks is walked by both.
  auto sweep = [&](size_t t) {
    NeighborCursor cursor(sorted, NeighborCursor::Order::kAscending);
    std::vector<CellRun>& runs = task_runs[t];
    const size_t end = (t + 1) * n / tasks;
    for (size_t c = t * n / tasks; c < end; ++c) {
      if (!scan.empty() && !scan[c]) {
        continue;
      }
      const size_t before = runs.size();
      cursor.ForEach(static_cast<uint32_t>(c), [&](CellRun run) {
        if (runs.size() > before && runs.back().end == run.begin) {
          runs.back().end = run.end;  // touches the previous run: merge
        } else {
          runs.push_back(run);
        }
        return true;
      });
      out.begin_[c + 1] = runs.size() - before;
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
