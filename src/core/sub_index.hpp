#pragma once
// Per-zone subscription index for rendezvous event matching.
//
// ZoneState::match used to scan every stored subscription per event, so a
// zone holding S subscriptions paid O(S * d) per event regardless of how
// few actually match. SubIndex turns that into near-O(matches): for each
// dimension it derives, from the sorted list of the stored ranges' interval
// endpoints, an equi-depth partition of the axis into at most C cells, and
// keeps per cell a compact bitset (std::vector<uint64_t> words, one bit per
// stored range) of the ranges overlapping that cell. An event point is
// located in one cell per dimension by binary search over the cell
// boundaries; AND-ing the d cell bitsets yields a small candidate set that
// is a guaranteed superset of the true matches, which the caller verifies
// with the exact containment test.
//
// Correctness never depends on the partition: cells are populated by
// closed-interval overlap, so any cell containing the point also carries
// the bit of every range containing the point. The partition only controls
// selectivity, and is re-derived from the current endpoint lists whenever
// the live count doubles (or collapses to half) since the last build, so
// incremental insert/remove between rebuilds stays O(cells touched). A
// build selects each dimension's boundaries (order statistics of its
// endpoint list) and then sweeps the cells in order, copying the running
// set of overlapping ranges into each cell, so its cost does not grow with
// how many cells a wide range spans. assign() builds a whole population
// that way in one pass.
//
// Dimensions whose endpoints are all identical (discrete / equality-only
// attributes, or string attributes pre-mapped to a single code) degenerate
// to one or two cells and simply stop discriminating — the per-dimension
// fallback: those dimensions cost one AND pass and the exact verification
// picks up the slack.
//
// Slots are stable small integers assigned at insert and recycled through a
// free list, so callers can keep side tables indexed by slot.

#include <cstdint>
#include <vector>

#include "common/hyperrect.hpp"

namespace hypersub::core {

class SubIndex {
 public:
  struct Config {
    std::size_t cells_per_dim = 128;  ///< max cells per dimension
    std::size_t rebuild_factor = 2;   ///< rebuild when live count doubles/halves
  };

  SubIndex() = default;
  explicit SubIndex(Config cfg) : cfg_(cfg) {}

  /// Index a range; returns its stable slot. The first insert fixes the
  /// dimensionality; all ranges must share it.
  std::uint32_t insert(const HyperRect& range);

  /// Replace the contents with `ranges` at slots 0..n-1, built in one
  /// pass. Candidates are what inserting them one by one into an empty
  /// index would give; only the cell boundaries (selectivity) and the next
  /// rebuild point, which counts from n, can differ.
  void assign(std::vector<HyperRect> ranges);

  /// Drop a previously inserted range; its slot is recycled.
  void remove(std::uint32_t slot);

  /// Live (inserted minus removed) range count.
  std::size_t size() const noexcept { return live_; }
  bool empty() const noexcept { return live_ == 0; }

  /// One past the largest slot ever returned (bitset width).
  std::size_t slot_capacity() const noexcept { return rects_.size(); }

  const HyperRect& slot_range(std::uint32_t slot) const { return rects_[slot]; }

  /// Append, in ascending slot order, every slot whose range *may* contain
  /// `p` — a superset of the exact answer; verify candidates exactly.
  void candidates(const Point& p, std::vector<std::uint32_t>& out) const;

  /// Estimated heap footprint (bitset grids + per-slot ranges).
  std::size_t memory_bytes() const noexcept {
    std::size_t bytes = dims_.capacity() * sizeof(Dim) +
                        rects_.capacity() * sizeof(HyperRect) +
                        free_.capacity() * sizeof(std::uint32_t) +
                        scratch_.capacity() * sizeof(std::uint64_t);
    for (const Dim& d : dims_) {
      bytes += d.bounds.capacity() * sizeof(double) +
               d.cells.capacity() * sizeof(std::vector<std::uint64_t>);
      for (const auto& c : d.cells) bytes += c.capacity() * sizeof(std::uint64_t);
    }
    for (const HyperRect& r : rects_) {
      bytes += r.dims().capacity() * sizeof(Interval);
    }
    return bytes;
  }

 private:
  struct Dim {
    std::vector<double> bounds;  ///< inner cell boundaries, ascending
    std::vector<std::vector<std::uint64_t>> cells;  ///< bitset words per cell
  };

  static std::size_t cell_of(const Dim& d, double x);
  void set_bits(const HyperRect& r, std::uint32_t slot);
  void clear_bits(const HyperRect& r, std::uint32_t slot);
  void rebuild();

  Config cfg_;
  std::vector<Dim> dims_;
  std::vector<HyperRect> rects_;     ///< per slot; empty() == free slot
  std::vector<std::uint32_t> free_;  ///< recycled slots
  std::size_t live_ = 0;
  std::size_t built_size_ = 0;  ///< live count at the last rebuild
  mutable std::vector<std::uint64_t> scratch_;  ///< AND accumulator
};

}  // namespace hypersub::core
