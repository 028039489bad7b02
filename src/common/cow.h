#ifndef DBSCOUT_COMMON_COW_H_
#define DBSCOUT_COMMON_COW_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_annotations.h"

namespace dbscout {

/// Chunked, copy-on-write growable array built for a phased writer /
/// many-reader regime with explicit snapshot points:
///
///  - Structural operations (PushBack, Freeze) are single-writer: exactly
///    one thread, with no concurrent access of any kind.
///  - Between structural operations, multiple worker threads may call
///    Set() and operator[] concurrently as long as no two threads touch
///    the same index ("disjoint-index phase"). The slab-wave apply
///    pipeline uses this: block tasks overwrite labels/counts for their
///    own points while reading neighbors owned by no concurrent writer.
///  - Freeze() produces an immutable view of the held entries that shares
///    the chunk storage (one pointer copy per held chunk, no element
///    copies).
///  - DropChunksBelow(end) releases every chunk wholly below index `end`
///    (a sliding window's expired prefix). Indices never shift: entry i
///    keeps index i, and only indices at or above the first held chunk
///    may be read. Frozen views keep the chunks they already share.
///  - After a Freeze, the first overwrite of an entry inside a frozen chunk
///    clones that chunk (copy-on-write), so frozen views never observe the
///    change. Appends never clone: they write slots at indices >= every
///    frozen view's size, which no reader dereferences. Publishing a frozen
///    view to another thread therefore only needs a release/acquire edge on
///    the view pointer itself (the detection service publishes snapshots
///    through an atomic shared_ptr).
///
/// Concurrency protocol for the disjoint-index phase: each chunk carries an
/// atomic owner serial and an atomic "live" chunk pointer. Set() fast-paths
/// on serial == freeze serial; on mismatch it takes the per-vector clone
/// mutex, re-checks, clones, then publishes the fresh chunk with a release
/// store of the live pointer before the release store of the serial.
/// Readers acquire-load the live pointer, so they see either the old chunk
/// (valid: nothing writes old chunks once a freeze interposed) or the fully
/// copied new one. Old chunks displaced mid-phase are parked on a retire
/// list (raw live pointers loaded by in-flight readers must outlive the
/// phase) and released at the next structural operation.
///
/// This is the storage idiom behind the service's epoch snapshots: labels
/// mutate sparsely per insertion (a rescue flips an old entry), so cloning
/// only touched chunks keeps snapshot publication O(changed) instead of
/// O(n).
template <typename T>
class CowChunkedVector {
 public:
  /// 1024 entries per chunk: big enough to amortize the shared_ptr
  /// bookkeeping, small enough that a clone after a sparse write is cheap.
  static constexpr size_t kChunkShift = 10;
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;

 private:
  struct Chunk {
    T data[kChunkSize];
  };

  /// Per-chunk bookkeeping. `owner` holds the lifetime; `live` is what
  /// readers dereference (always == owner.get(), but atomically
  /// publishable); `serial` says which freeze period the chunk was created
  /// or cloned in. Movable (for vector growth during single-writer
  /// appends), never copied.
  struct Slot {
    std::shared_ptr<Chunk> owner;
    std::atomic<Chunk*> live;
    std::atomic<uint64_t> serial;

    Slot(std::shared_ptr<Chunk> chunk, uint64_t created_serial)
        : owner(std::move(chunk)), live(owner.get()), serial(created_serial) {}
    Slot(Slot&& other) noexcept
        : owner(std::move(other.owner)),
          live(other.live.load(std::memory_order_relaxed)),
          serial(other.serial.load(std::memory_order_relaxed)) {}
    Slot& operator=(Slot&&) = delete;
  };

 public:
  CowChunkedVector() = default;
  CowChunkedVector(CowChunkedVector&&) noexcept = default;
  CowChunkedVector& operator=(CowChunkedVector&&) noexcept = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Reads entry i. Safe concurrently with disjoint-index Set() calls on
  /// other threads: the acquire load pairs with Set()'s release publication
  /// of a cloned chunk.
  T operator[](size_t i) const {
    return chunks_[(i >> kChunkShift) - first_chunk_]
        .live.load(std::memory_order_acquire)
        ->data[i & (kChunkSize - 1)];
  }

  /// Index of the first entry the held chunks cover (0 until a drop).
  size_t held_begin() const { return first_chunk_ << kChunkShift; }

  /// Appends one entry (structural: single-writer, no concurrent access).
  /// Never clones: the slot is beyond every frozen view's bound, so
  /// writing it in a shared chunk is race-free.
  void PushBack(T value) {
    const size_t chunk = (size_ >> kChunkShift) - first_chunk_;
    if (chunk == chunks_.size()) {
      chunks_.emplace_back(std::make_shared<Chunk>(), freeze_serial_);
    }
    chunks_[chunk].live.load(std::memory_order_relaxed)
        ->data[size_ & (kChunkSize - 1)] = value;
    ++size_;
  }

  /// Overwrites entry i, cloning its chunk first if any frozen view may
  /// still reference it (i.e. the chunk predates the latest Freeze()).
  /// Callable from multiple threads concurrently when every thread's index
  /// set is disjoint; first writers to a stale chunk serialize on the
  /// clone mutex.
  void Set(size_t i, T value) { *MutableSlot(i) = value; }

  /// Writable pointer to entry i, cloning its chunk first under the same
  /// protocol as Set(). The pointer stays valid for the rest of the
  /// current phase (chunks displaced later in the phase are retired, not
  /// freed) — hot read-modify-write loops use this to pay the clone check
  /// once per access instead of once per read plus once per write.
  T* MutableSlot(size_t i) {
    Slot& slot = chunks_[(i >> kChunkShift) - first_chunk_];
    if (slot.serial.load(std::memory_order_acquire) != freeze_serial_) {
      MutexLock lock(*clone_mu_);
      if (slot.serial.load(std::memory_order_relaxed) != freeze_serial_) {
        auto fresh = std::make_shared<Chunk>(*slot.owner);
        retired_.push_back(std::move(slot.owner));
        slot.owner = std::move(fresh);
        slot.live.store(slot.owner.get(), std::memory_order_release);
        slot.serial.store(freeze_serial_, std::memory_order_release);
      }
    }
    return slot.live.load(std::memory_order_acquire)->data +
           (i & (kChunkSize - 1));
  }

  /// Immutable view of the held contents; one pointer copy per held chunk.
  class Frozen {
   public:
    Frozen() = default;
    size_t size() const { return size_; }
    size_t chunks_held() const { return chunks_.size(); }
    /// By reference: nothing writes a frozen chunk, and entries that own
    /// memory (the detector's per-cell heads) are read without a copy.
    const T& operator[](size_t i) const {
      return chunks_[(i >> kChunkShift) - first_chunk_]
          ->data[i & (kChunkSize - 1)];
    }

   private:
    friend class CowChunkedVector;
    std::vector<std::shared_ptr<const Chunk>> chunks_;
    size_t first_chunk_ = 0;
    size_t size_ = 0;
  };

  /// Structural: single-writer, no concurrent access. Releases chunks
  /// retired by mid-phase clones (no in-flight raw reader can outlive the
  /// phase barrier that precedes a structural call).
  Frozen Freeze() {
    Frozen view;
    view.chunks_.reserve(chunks_.size());
    for (const Slot& slot : chunks_) {
      view.chunks_.push_back(slot.owner);
    }
    view.first_chunk_ = first_chunk_;
    view.size_ = size_;
    ++freeze_serial_;
    {
      // Structurally single-writer (no clone can race a Freeze), but taking
      // the mutex keeps the guarded-by contract checkable and costs one
      // uncontended lock per freeze.
      MutexLock lock(*clone_mu_);
      retired_.clear();
    }
    return view;
  }

  /// Structural: releases every held chunk whose entries all lie below
  /// `end` (<= size()). O(chunks held), and a no-op unless at least one
  /// chunk goes.
  void DropChunksBelow(size_t end) {
    const size_t below = end >> kChunkShift;  // chunks [0, below) are full
    if (below <= first_chunk_) {
      return;
    }
    const size_t drop = below - first_chunk_;
    std::vector<Slot> kept;
    kept.reserve(chunks_.size() - drop);
    for (size_t c = drop; c < chunks_.size(); ++c) {
      kept.emplace_back(std::move(chunks_[c]));
    }
    chunks_ = std::move(kept);
    first_chunk_ += drop;
  }

 private:
  std::vector<Slot> chunks_;
  /// Chunk index of chunks_[0]: chunks below it were dropped.
  size_t first_chunk_ = 0;
  /// Old chunks displaced by mid-phase clones, kept alive until the next
  /// structural operation so concurrent readers' raw `live` pointers stay
  /// valid.
  std::vector<std::shared_ptr<Chunk>> retired_ DBSCOUT_GUARDED_BY(*clone_mu_);
  /// Serializes first-touch clones; unique_ptr keeps the vector movable.
  std::unique_ptr<Mutex> clone_mu_ = std::make_unique<Mutex>();
  size_t size_ = 0;
  /// Bumped by Freeze(); a chunk is exclusively owned (safe to overwrite
  /// in place) iff its serial matches. Written only during structural
  /// operations, read-only during concurrent phases.
  uint64_t freeze_serial_ = 0;
};

/// Append-only chunked row store for fixed-width rows of doubles (the
/// service-side point storage). Rows are immutable once written, so frozen
/// views share all chunks unconditionally and appends never clone; each row
/// is contiguous within one chunk so readers get a std::span per point.
/// DropChunksBelow releases a whole-chunk prefix, as CowChunkedVector's
/// does; row indices never shift.
class ChunkedRows {
 public:
  static constexpr size_t kRowsPerChunk = 1024;

  explicit ChunkedRows(size_t width = 2) : width_(width) {}

  size_t width() const { return width_; }
  size_t size() const { return rows_; }

  std::span<const double> operator[](size_t i) const {
    return {chunks_[i / kRowsPerChunk - first_chunk_]->data() +
                (i % kRowsPerChunk) * width_,
            width_};
  }

  /// Appends one row; `row` must have exactly width() entries.
  void PushBack(std::span<const double> row) {
    const size_t chunk = rows_ / kRowsPerChunk - first_chunk_;
    if (chunk == chunks_.size()) {
      chunks_.push_back(
          std::make_shared<std::vector<double>>(kRowsPerChunk * width_));
    }
    double* dst =
        chunks_[chunk]->data() + (rows_ % kRowsPerChunk) * width_;
    for (size_t k = 0; k < width_; ++k) {
      dst[k] = row[k];
    }
    ++rows_;
  }

  /// Releases every held chunk whose rows all lie below `end` (<= size()).
  void DropChunksBelow(size_t end) {
    const size_t below = end / kRowsPerChunk;  // chunks [0, below) are full
    if (below <= first_chunk_) {
      return;
    }
    chunks_.erase(chunks_.begin(),
                  chunks_.begin() + static_cast<std::ptrdiff_t>(
                                        below - first_chunk_));
    first_chunk_ = below;
  }

  /// Immutable view of the held rows.
  class Frozen {
   public:
    Frozen() = default;
    size_t size() const { return rows_; }
    size_t width() const { return width_; }
    size_t chunks_held() const { return chunks_.size(); }
    std::span<const double> operator[](size_t i) const {
      return {chunks_[i / kRowsPerChunk - first_chunk_]->data() +
                  (i % kRowsPerChunk) * width_,
              width_};
    }

   private:
    friend class ChunkedRows;
    std::vector<std::shared_ptr<const std::vector<double>>> chunks_;
    size_t first_chunk_ = 0;
    size_t rows_ = 0;
    size_t width_ = 0;
  };

  Frozen Freeze() const {
    Frozen view;
    view.chunks_.assign(chunks_.begin(), chunks_.end());
    view.first_chunk_ = first_chunk_;
    view.rows_ = rows_;
    view.width_ = width_;
    return view;
  }

 private:
  size_t width_;
  size_t rows_ = 0;
  /// Chunk index of chunks_[0]: chunks below it were dropped.
  size_t first_chunk_ = 0;
  std::vector<std::shared_ptr<std::vector<double>>> chunks_;
};

}  // namespace dbscout

#endif  // DBSCOUT_COMMON_COW_H_
