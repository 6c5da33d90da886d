#pragma once
// Open-addressing hash map with linear probing and backward-shift deletion.
//
// Replaces std::unordered_map for the zone stores' key indexes (by_key_):
// at saturation scale such maps hold millions of entries, and the
// node-based map pays one heap allocation plus two pointers of
// bucket/next overhead per entry on top of the payload. This
// map stores keys, values and a one-byte occupancy flag in three flat
// arrays — no per-entry allocation, cache-friendly probes, and a
// deterministic layout given the insertion/erase sequence.
//
// Requirements: K trivially copyable + equality-comparable, V movable and
// default-constructible. Erase uses backward shifting, so iteration order
// can change across erases — callers that need deterministic output order
// (checkpointing) sort keys explicitly, as they already did with the
// unordered map.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hypersub::core {

/// splitmix64-style mix for map hashing (declared in zone_state.hpp for
/// ZoneAddrHash; duplicated inline here to keep this header dependency-free).
inline std::uint64_t flat_map_mix(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

template <typename K, typename V>
class FlatMap {
 public:
  FlatMap() = default;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return keys_.size(); }

  void clear() {
    keys_.clear();
    vals_.clear();
    used_.clear();
    size_ = 0;
  }

  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    // Grow until n fits under the max load factor (3/4).
    while (n * 4 >= cap * 3) cap <<= 1;
    if (cap > keys_.size()) rehash(cap);
  }

  /// Pointer to the value stored under `k`, or nullptr.
  V* find(const K& k) noexcept {
    if (size_ == 0) return nullptr;
    std::size_t i = slot_of(k);
    while (used_[i]) {
      if (keys_[i] == k) return &vals_[i];
      i = (i + 1) & mask();
    }
    return nullptr;
  }
  const V* find(const K& k) const noexcept {
    return const_cast<FlatMap*>(this)->find(k);
  }
  bool contains(const K& k) const noexcept { return find(k) != nullptr; }

  /// Find-or-default-construct, like std::unordered_map::operator[].
  V& operator[](const K& k) {
    grow_if_needed();
    std::size_t i = slot_of(k);
    while (used_[i]) {
      if (keys_[i] == k) return vals_[i];
      i = (i + 1) & mask();
    }
    used_[i] = 1;
    keys_[i] = k;
    vals_[i] = V{};
    ++size_;
    return vals_[i];
  }

  /// Insert-or-assign; returns true if the key was new.
  bool insert(const K& k, V v) {
    grow_if_needed();
    std::size_t i = slot_of(k);
    while (used_[i]) {
      if (keys_[i] == k) {
        vals_[i] = std::move(v);
        return false;
      }
      i = (i + 1) & mask();
    }
    used_[i] = 1;
    keys_[i] = k;
    vals_[i] = std::move(v);
    ++size_;
    return true;
  }

  /// Remove `k` (backward-shift deletion: no tombstones, probe chains stay
  /// tight under churn). Returns true if the key was present.
  bool erase(const K& k) {
    if (size_ == 0) return false;
    std::size_t i = slot_of(k);
    while (used_[i]) {
      if (keys_[i] == k) {
        shift_out(i);
        --size_;
        return true;
      }
      i = (i + 1) & mask();
    }
    return false;
  }

  /// Visit every live entry as fn(const K&, V&). Order is layout order —
  /// deterministic for a given mutation sequence, not sorted.
  template <typename F>
  void for_each(F&& fn) {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (used_[i]) fn(const_cast<const K&>(keys_[i]), vals_[i]);
    }
  }
  template <typename F>
  void for_each(F&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (used_[i]) fn(keys_[i], vals_[i]);
    }
  }

  /// Flat-array footprint (excludes heap owned by the values themselves).
  std::size_t memory_bytes() const noexcept {
    return keys_.capacity() * sizeof(K) + vals_.capacity() * sizeof(V) +
           used_.capacity();
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  std::size_t mask() const noexcept { return keys_.size() - 1; }
  std::size_t slot_of(const K& k) const noexcept {
    return std::size_t(flat_map_mix(hash_key(k))) & mask();
  }
  static std::uint64_t hash_key(const K& k) noexcept {
    if constexpr (sizeof(K) <= sizeof(std::uint64_t)) {
      std::uint64_t x = 0;
      __builtin_memcpy(&x, &k, sizeof(K));
      return x;
    } else {
      // Fold the bytes word-wise; keys here are PODs (ids, small structs).
      const unsigned char* p = reinterpret_cast<const unsigned char*>(&k);
      std::uint64_t h = 0;
      for (std::size_t off = 0; off < sizeof(K); off += 8) {
        std::uint64_t w = 0;
        __builtin_memcpy(&w, p + off,
                         sizeof(K) - off < 8 ? sizeof(K) - off : 8);
        h = flat_map_mix(h ^ w);
      }
      return h;
    }
  }

  void grow_if_needed() {
    if (keys_.empty()) {
      rehash(kMinCapacity);
    } else if ((size_ + 1) * 4 >= keys_.size() * 3) {
      rehash(keys_.size() * 2);
    }
  }

  void rehash(std::size_t cap) {
    std::vector<K> old_keys = std::move(keys_);
    std::vector<V> old_vals = std::move(vals_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    keys_.assign(cap, K{});
    vals_.clear();
    vals_.resize(cap);
    used_.assign(cap, 0);
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (!old_used[i]) continue;
      std::size_t j = slot_of(old_keys[i]);
      while (used_[j]) j = (j + 1) & mask();
      used_[j] = 1;
      keys_[j] = old_keys[i];
      vals_[j] = std::move(old_vals[i]);
    }
  }

  /// Backward-shift deletion starting at freshly-vacated slot `i`.
  void shift_out(std::size_t i) {
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask();
      if (!used_[j]) break;
      const std::size_t ideal = slot_of(keys_[j]);
      // Entry j may move into i iff its probe chain passes through i:
      // cyclic distance(ideal -> j) >= distance(i -> j).
      if (((j - ideal) & mask()) >= ((j - i) & mask())) {
        keys_[i] = keys_[j];
        vals_[i] = std::move(vals_[j]);
        i = j;
      }
    }
    used_[i] = 0;
    keys_[i] = K{};
    vals_[i] = V{};
  }

  std::vector<K> keys_;
  std::vector<V> vals_;
  std::vector<std::uint8_t> used_;  // 1 = slot live
  std::size_t size_ = 0;
};

}  // namespace hypersub::core
