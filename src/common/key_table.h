#ifndef DBSCOUT_COMMON_KEY_TABLE_H_
#define DBSCOUT_COMMON_KEY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace dbscout {

/// Numbers distinct keys by first appearance: ids 0, 1, 2, ... An
/// open-addressing table: power-of-two slots hold a key's id + 1 (0 is
/// empty) and 32 bits of its mixed hash, which also pick the home slot.
/// Probes run linearly and compare keys only when the hashes agree; the
/// table doubles at half load, rehashing from the stored bits. Callers keep
/// per-key data in vectors indexed by id, so the table holds no values.
template <typename K, typename Hash = std::hash<K>>
class KeyTable {
 public:
  static constexpr uint32_t kAbsent = ~uint32_t{0};

  explicit KeyTable(const Hash& hash = Hash()) : hash_(hash) {}

  /// The id of `key`, which is numbered next if it is new.
  uint32_t IdOf(const K& key) {
    const uint32_t bits = Bits(key);
    for (size_t s = bits & mask_;; s = (s + 1) & mask_) {
      Slot& slot = slots_[s];
      if (slot.id_plus_1 == 0) {
        const uint32_t id = static_cast<uint32_t>(keys_.size());
        slot = {id + 1, bits};
        keys_.push_back(key);
        if (2 * keys_.size() > slots_.size()) {
          Grow();
        }
        return id;
      }
      if (slot.bits == bits && keys_[slot.id_plus_1 - 1] == key) {
        return slot.id_plus_1 - 1;
      }
    }
  }

  /// The id of `key`, or kAbsent.
  uint32_t Find(const K& key) const {
    const uint32_t bits = Bits(key);
    for (size_t s = bits & mask_;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.id_plus_1 == 0) {
        return kAbsent;
      }
      if (slot.bits == bits && keys_[slot.id_plus_1 - 1] == key) {
        return slot.id_plus_1 - 1;
      }
    }
  }

  size_t size() const { return keys_.size(); }

  /// Keys by id.
  const std::vector<K>& keys() const { return keys_; }

 private:
  struct Slot {
    uint32_t id_plus_1;
    uint32_t bits;
  };

  // The high half of a Fibonacci-hashed product, so that weak hashes
  // (std::hash of an integer is the integer) still spread over the slots.
  uint32_t Bits(const K& key) const {
    return static_cast<uint32_t>(
        (static_cast<uint64_t>(hash_(key)) * 0x9e3779b97f4a7c15ULL) >> 32);
  }

  void Grow() {
    std::vector<Slot> old(2 * slots_.size(), Slot{0, 0});
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id_plus_1 != 0) {
        size_t s = slot.bits & mask_;
        while (slots_[s].id_plus_1 != 0) {
          s = (s + 1) & mask_;
        }
        slots_[s] = slot;
      }
    }
  }

  Hash hash_;
  std::vector<Slot> slots_ = std::vector<Slot>(1024, Slot{0, 0});
  size_t mask_ = slots_.size() - 1;
  std::vector<K> keys_;
};

}  // namespace dbscout

#endif  // DBSCOUT_COMMON_KEY_TABLE_H_
