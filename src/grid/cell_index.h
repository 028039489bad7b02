#ifndef DBSCOUT_GRID_CELL_INDEX_H_
#define DBSCOUT_GRID_CELL_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "grid/cell_coord.h"
#include "grid/gap_pruning.h"

namespace dbscout::grid {

/// A persistent, lexicographically sorted index of occupied cells, mapping
/// each cell's coordinate to a caller-chosen slot. It is the live
/// detector's coordinate -> cell lookup (the cells change on every insert
/// and removal, so SortedCells' one-shot columns do not fit).
///
/// Layout: a two-level B+-tree. Leaves hold up to 32 (coordinate, slot)
/// entries in ascending coordinate order; the root lists the leaves in
/// order together with each leaf's last key. Inserts split a full leaf,
/// erases drop an empty one and merge a sparse one into a neighbor.
///
/// Persistence: Freeze() hands out an immutable version that shares every
/// node with the live index, O(1). Nodes carry the freeze serial they were
/// created or cloned in; the first write into a node after a freeze clones
/// it (the root, then the leaf), so frozen versions never observe later
/// writes and the writer pays only for the nodes it touches.
///
/// Neighbors: AppendNeighbors runs SortedCells' Definition 8 descent over
/// the sorted keys, down to the leaves — one level per dimension, each
/// level a seek to the next coordinate window of GapPruning — so a lookup
/// costs O(log cells) per trie node visited, never k_d hash probes.
///
/// Threading: structural calls (Insert, Erase, Freeze) are single-writer
/// with no concurrent access; between them any number of threads may read
/// the live index, and a frozen version may be read by any thread at any
/// time.
class CellIndex {
  struct Leaf;
  struct Root;

 public:
  static constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

  explicit CellIndex(size_t dims = 1);
  CellIndex(CellIndex&&) noexcept = default;
  CellIndex& operator=(CellIndex&&) noexcept = default;

  /// An immutable version of the index. Default-constructed, it is empty.
  class Frozen {
   public:
    Frozen() = default;
    size_t size() const;
    uint32_t Find(const CellCoord& coord) const;
    void AppendNeighbors(const CellCoord& x, std::vector<uint32_t>* out) const;

   private:
    friend class CellIndex;
    std::shared_ptr<const Root> root_;
    GapPruning pruning_;
  };

  /// Number of indexed cells.
  size_t size() const;

  /// Slot of the cell at `coord`, or kNoSlot.
  uint32_t Find(const CellCoord& coord) const;

  /// Appends the slots of the indexed neighbors (Definition 8) of cell `x`,
  /// `x` itself included when indexed, in ascending coordinate order. `x`
  /// need not be indexed.
  void AppendNeighbors(const CellCoord& x, std::vector<uint32_t>* out) const;

  /// Indexes the absent cell `coord` under `slot`. Structural.
  void Insert(const CellCoord& coord, uint32_t slot);

  /// Removes the indexed cell `coord`. Structural.
  void Erase(const CellCoord& coord);

  /// The current version, shared with the live index. Structural.
  Frozen Freeze();

 private:
  class Descent;

  static uint32_t FindIn(const Root& root, const CellCoord& coord);

  /// The root, cloned first if a frozen version may share it.
  Root* MutableRoot();
  /// Leaf `li` of the (owned) root, cloned first if it may be shared.
  Leaf* MutableLeaf(Root* root, size_t li);

  std::shared_ptr<Root> root_;
  GapPruning pruning_;
  /// Bumped by Freeze(); a node whose serial matches is owned by the live
  /// index alone and is written in place.
  uint64_t serial_ = 0;
};

}  // namespace dbscout::grid

#endif  // DBSCOUT_GRID_CELL_INDEX_H_
