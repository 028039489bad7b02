#include "grid/cell_index.h"

#include <algorithm>
#include <array>

namespace dbscout::grid {
namespace {

constexpr uint32_t kLeafCapacity = 32;

// Lexicographic order of the first `len` coordinates.
bool PrefixLess(const CellCoord& a, const CellCoord& b, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    if (a[i] != b[i]) {
      return a[i] < b[i];
    }
  }
  return false;
}

bool SamePrefix(const CellCoord& a, const CellCoord& b, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    if (a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

struct CellIndex::Leaf {
  uint64_t serial = 0;
  uint32_t size = 0;
  std::array<CellCoord, kLeafCapacity> keys;
  std::array<uint32_t, kLeafCapacity> slots{};
};

struct CellIndex::Root {
  uint64_t serial = 0;
  size_t dims = 0;
  size_t size = 0;
  std::vector<std::shared_ptr<Leaf>> leaves;
  std::vector<CellCoord> lasts;  // last key of each leaf
};

/// One Definition 8 descent from cell `x` over a version's sorted keys.
/// Positions are (leaf, entry) pairs in key order; every level seeks
/// forward from where its parent's run starts, so a seek that stays in
/// the current leaf costs one binary search over that leaf.
class CellIndex::Descent {
 public:
  Descent(const Root& root, const GapPruning& pruning, const CellCoord& x,
          std::vector<uint32_t>* out)
      : root_(root), pruning_(pruning), x_(x), probe_(x), out_(out) {}

  void Run() { Walk(0, {0, 0}, 0); }

 private:
  struct Pos {
    size_t leaf;
    uint32_t at;
  };

  const CellCoord& KeyAt(Pos p) const {
    return root_.leaves[p.leaf]->keys[p.at];
  }

  // First position at or after `from` whose first `len` coordinates are
  // not below probe_'s; leaf == leaves.size() when there is none.
  Pos Seek(Pos from, size_t len) const {
    const auto below = [len](const CellCoord& a, const CellCoord& b) {
      return PrefixLess(a, b, len);
    };
    const size_t n = root_.leaves.size();
    const CellCoord* lasts = root_.lasts.data();
    size_t li = from.leaf;
    uint32_t lo = from.at;
    if (li < n && below(lasts[li], probe_)) {
      // Past this leaf. The next window usually starts a leaf or two on,
      // so gallop over the last keys before the binary search.
      size_t first = li + 1;
      size_t last = first;
      for (size_t step = 1; last < n && below(lasts[last], probe_);
           step *= 2) {
        first = last + 1;
        last = first + step;
      }
      li = static_cast<size_t>(
          std::lower_bound(lasts + first, lasts + std::min(last + 1, n),
                           probe_, below) -
          lasts);
      lo = 0;
    }
    if (li == n) {
      return {n, 0};
    }
    const Leaf& leaf = *root_.leaves[li];
    const CellCoord* keys = leaf.keys.data();
    const uint32_t at = static_cast<uint32_t>(
        std::lower_bound(keys + lo, keys + leaf.size, probe_, below) - keys);
    return {li, at};
  }

  Pos Next(Pos p) const {
    if (++p.at == root_.leaves[p.leaf]->size) {
      return {p.leaf + 1, 0};
    }
    return p;
  }

  // Visits the children of the trie node whose prefix is probe_[0, k),
  // at gap `gap` (< d) from x's; the node's keys start at or after `from`.
  void Walk(size_t k, Pos from, int64_t gap) {
    const size_t n = root_.leaves.size();
    const GapPruning::Window window = pruning_.At(x_[k], gap);
    probe_[k] = window.lo;
    Pos p = Seek(from, k + 1);
    const bool leaf_level = k + 1 == root_.dims;
    while (p.leaf < n) {
      const CellCoord& key = KeyAt(p);
      if (!SamePrefix(key, probe_, k) || key[k] > window.hi) {
        return;
      }
      if (leaf_level) {  // leaves: one cell each
        out_->push_back(root_.leaves[p.leaf]->slots[p.at]);
        p = Next(p);
        continue;
      }
      const int64_t v = key[k];
      probe_[k] = v;
      Walk(k + 1, p, gap + GapPruning::AxisGap(v - x_[k]));
      if (v == window.hi) {
        return;
      }
      probe_[k] = v + 1;
      p = Seek(p, k + 1);
    }
  }

  const Root& root_;
  const GapPruning& pruning_;
  const CellCoord& x_;
  CellCoord probe_;  // the current path's prefix, then the seek target
  std::vector<uint32_t>* out_;
};

CellIndex::CellIndex(size_t dims)
    : root_(std::make_shared<Root>()), pruning_(dims) {
  root_->dims = dims;
}

size_t CellIndex::size() const { return root_->size; }

uint32_t CellIndex::FindIn(const Root& root, const CellCoord& coord) {
  const auto it =
      std::lower_bound(root.lasts.begin(), root.lasts.end(), coord);
  if (it == root.lasts.end()) {
    return kNoSlot;
  }
  const Leaf& leaf = *root.leaves[static_cast<size_t>(it - root.lasts.begin())];
  const CellCoord* keys = leaf.keys.data();
  const CellCoord* at = std::lower_bound(keys, keys + leaf.size, coord);
  return *at == coord ? leaf.slots[static_cast<size_t>(at - keys)] : kNoSlot;
}

uint32_t CellIndex::Find(const CellCoord& coord) const {
  return FindIn(*root_, coord);
}

void CellIndex::AppendNeighbors(const CellCoord& x,
                                std::vector<uint32_t>* out) const {
  Descent(*root_, pruning_, x, out).Run();
}

size_t CellIndex::Frozen::size() const {
  return root_ == nullptr ? 0 : root_->size;
}

uint32_t CellIndex::Frozen::Find(const CellCoord& coord) const {
  return root_ == nullptr ? kNoSlot : FindIn(*root_, coord);
}

void CellIndex::Frozen::AppendNeighbors(const CellCoord& x,
                                        std::vector<uint32_t>* out) const {
  if (root_ != nullptr) {
    Descent(*root_, pruning_, x, out).Run();
  }
}

CellIndex::Root* CellIndex::MutableRoot() {
  if (root_->serial != serial_) {
    root_ = std::make_shared<Root>(*root_);
    root_->serial = serial_;
  }
  return root_.get();
}

CellIndex::Leaf* CellIndex::MutableLeaf(Root* root, size_t li) {
  std::shared_ptr<Leaf>& leaf = root->leaves[li];
  if (leaf->serial != serial_) {
    leaf = std::make_shared<Leaf>(*leaf);
    leaf->serial = serial_;
  }
  return leaf.get();
}

void CellIndex::Insert(const CellCoord& coord, uint32_t slot) {
  Root* root = MutableRoot();
  if (root->leaves.empty()) {
    root->leaves.push_back(std::make_shared<Leaf>());
    root->leaves.back()->serial = serial_;
    root->lasts.push_back(coord);
  }
  // The first leaf whose last key is not below `coord`, or the last leaf
  // when `coord` sorts after every key.
  const size_t li = std::min(
      static_cast<size_t>(
          std::lower_bound(root->lasts.begin(), root->lasts.end(), coord) -
          root->lasts.begin()),
      root->leaves.size() - 1);
  Leaf* leaf = MutableLeaf(root, li);
  const uint32_t at = static_cast<uint32_t>(
      std::lower_bound(leaf->keys.begin(), leaf->keys.begin() + leaf->size,
                       coord) -
      leaf->keys.begin());
  std::copy_backward(leaf->keys.begin() + at,
                     leaf->keys.begin() + leaf->size,
                     leaf->keys.begin() + leaf->size + 1);
  std::copy_backward(leaf->slots.begin() + at,
                     leaf->slots.begin() + leaf->size,
                     leaf->slots.begin() + leaf->size + 1);
  leaf->keys[at] = coord;
  leaf->slots[at] = slot;
  ++leaf->size;
  ++root->size;
  root->lasts[li] = leaf->keys[leaf->size - 1];
  if (leaf->size < kLeafCapacity) {
    return;
  }
  // Full: the upper half moves to a fresh leaf right after this one.
  auto upper = std::make_shared<Leaf>();
  upper->serial = serial_;
  constexpr uint32_t kHalf = kLeafCapacity / 2;
  upper->size = kLeafCapacity - kHalf;
  std::copy(leaf->keys.begin() + kHalf, leaf->keys.end(),
            upper->keys.begin());
  std::copy(leaf->slots.begin() + kHalf, leaf->slots.end(),
            upper->slots.begin());
  leaf->size = kHalf;
  root->lasts[li] = leaf->keys[kHalf - 1];
  const auto pos = static_cast<ptrdiff_t>(li) + 1;
  root->lasts.insert(root->lasts.begin() + pos, upper->keys[upper->size - 1]);
  root->leaves.insert(root->leaves.begin() + pos, std::move(upper));
}

void CellIndex::Erase(const CellCoord& coord) {
  Root* root = MutableRoot();
  const size_t li = static_cast<size_t>(
      std::lower_bound(root->lasts.begin(), root->lasts.end(), coord) -
      root->lasts.begin());
  Leaf* leaf = MutableLeaf(root, li);
  const auto at =
      std::lower_bound(leaf->keys.begin(), leaf->keys.begin() + leaf->size,
                       coord) -
      leaf->keys.begin();
  std::copy(leaf->keys.begin() + at + 1, leaf->keys.begin() + leaf->size,
            leaf->keys.begin() + at);
  std::copy(leaf->slots.begin() + at + 1, leaf->slots.begin() + leaf->size,
            leaf->slots.begin() + at);
  --leaf->size;
  --root->size;
  // Merge a leaf into its predecessor (or its successor into it) once the
  // pair fits in half a leaf, so churn cannot leave a trail of near-empty
  // leaves; an emptied leaf always goes.
  auto drop = [root](size_t i) {
    root->leaves.erase(root->leaves.begin() + static_cast<ptrdiff_t>(i));
    root->lasts.erase(root->lasts.begin() + static_cast<ptrdiff_t>(i));
  };
  auto append = [](Leaf* into, const Leaf& from) {
    std::copy_n(from.keys.begin(), from.size, into->keys.begin() + into->size);
    std::copy_n(from.slots.begin(), from.size,
                into->slots.begin() + into->size);
    into->size += from.size;
  };
  constexpr uint32_t kMergeBelow = kLeafCapacity / 2;
  if (leaf->size == 0) {
    drop(li);
  } else if (li > 0 && root->leaves[li - 1]->size + leaf->size <= kMergeBelow) {
    Leaf* prev = MutableLeaf(root, li - 1);
    append(prev, *leaf);
    root->lasts[li - 1] = prev->keys[prev->size - 1];
    drop(li);
  } else if (li + 1 < root->leaves.size() &&
             leaf->size + root->leaves[li + 1]->size <= kMergeBelow) {
    append(leaf, *root->leaves[li + 1]);
    root->lasts[li] = leaf->keys[leaf->size - 1];
    drop(li + 1);
  } else {
    root->lasts[li] = leaf->keys[leaf->size - 1];
  }
}

CellIndex::Frozen CellIndex::Freeze() {
  Frozen view;
  view.root_ = root_;
  view.pruning_ = pruning_;
  ++serial_;
  return view;
}

}  // namespace dbscout::grid
