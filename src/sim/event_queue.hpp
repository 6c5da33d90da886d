#pragma once
// EventQueue: the engine's pending-event set, ordered by (when, seq).
//
// A scheduled event is split in two. Its ordering key {when, seq, slot}
// (24 bytes with padding) lives in a 4-ary min-heap; its Task lives in a
// slot table with a LIFO free list and never moves while it is pending. Sift
// steps therefore shuffle small trivially-copyable keys instead of whole
// Tasks (each Task move is an indirect call), and a Task is moved exactly
// once in (push) and once out (pop). Slots are allocated in blocks of
// doubling size (16, 32, 64, ...), so growing the table never relocates a
// pending Task either, and a queue that stays small stays small.
//
// seq is unique per Simulator, so (when, seq) is a strict total order and
// the pop sequence is fully determined by the pushed keys.

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/task.hpp"

namespace hypersub::sim {

/// Virtual time in milliseconds since simulation start.
using Time = double;

class EventQueue {
 public:
  /// Heap key of one pending event. `slot` indexes the slot table.
  struct Key {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Key) == 24);

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// The earliest pending event's key. Requires !empty().
  const Key& top() const noexcept {
    assert(!heap_.empty());
    return heap_.front();
  }

  void push(Time when, std::uint64_t seq, Task&& action) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = std::uint32_t(used_++);
      if (slot == capacity_) {
        const std::size_t size = kFirstBlock << blocks_.size();
        blocks_.push_back(std::make_unique<Task[]>(size));
        capacity_ += size;
      }
    }
    at(slot) = std::move(action);
    heap_.push_back(Key{when, seq, slot});
    sift_up(heap_.size() - 1);
  }

  /// Remove the earliest event (the one top() names) and return its
  /// action. Requires !empty().
  Task pop() {
    assert(!heap_.empty());
    const std::uint32_t slot = heap_.front().slot;
    Task action = std::move(at(slot));
    free_.push_back(slot);
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
    return action;
  }

 private:
  static constexpr std::size_t kArity = 4;
  static constexpr std::size_t kFirstBlockBits = 4;
  static constexpr std::size_t kFirstBlock = std::size_t{1} << kFirstBlockBits;

  static bool before(const Key& a, const Key& b) noexcept {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  /// Block b holds kFirstBlock << b slots, the first being slot
  /// kFirstBlock * (2^b - 1).
  Task& at(std::uint32_t slot) noexcept {
    const std::size_t v = std::size_t(slot) + kFirstBlock;
    const std::size_t b = std::size_t(std::bit_width(v)) - kFirstBlockBits - 1;
    return blocks_[b][v - (kFirstBlock << b)];
  }

  void sift_up(std::size_t i) noexcept {
    const Key k = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(k, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  /// Re-seat `k` starting from the (vacated) root.
  void sift_down(const Key& k) noexcept {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], k)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = k;
  }

  std::vector<Key> heap_;
  std::vector<std::unique_ptr<Task[]>> blocks_;
  std::size_t used_ = 0;      ///< slots ever handed out (high-water mark)
  std::size_t capacity_ = 0;  ///< slots in all blocks
  std::vector<std::uint32_t> free_;
};

}  // namespace hypersub::sim
