#pragma once
// Content zones and the zone tree (paper §3.2).
//
// A ZoneSystem recursively subdivides a d-dimensional content space into a
// β-ary tree of content zones (β = 2^base_bits). The i-th division (1-based)
// splits the (i-1 mod d)-th dimension into β equal ranges; picking the p-th
// range appends digit p to the zone's code. A zone is identified by
// (code, level); its Chord key is the code placed in the top bits of the
// 64-bit identifier, right-padded with (β-1) digits — i.e. all one bits.
//
// Only `code_bits` of the identifier are ever used for codes (the paper's
// simulations use the first 20 bits of 64-bit ids), so max_level =
// code_bits / base_bits digits.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/hyperrect.hpp"
#include "common/ids.hpp"

namespace hypersub::lph {

/// One node of the zone tree: `level` digits of `code` in base 2^base_bits.
struct Zone {
  std::uint64_t code = 0;
  int level = 0;

  friend bool operator==(const Zone&, const Zone&) = default;
};

/// Geometry + coding of the zone tree for one content space.
class ZoneSystem {
 public:
  struct Config {
    int base_bits = 1;   ///< b: digits are 2^b-ary (paper evaluates b=1, b=2)
    int code_bits = 20;  ///< identifier bits reserved for zone codes

    /// code_bits sized to ~`splits_per_dim` subdivisions of every
    /// dimension — the paper's 20 bits correspond to its 4-attribute
    /// scheme (5 splits/dim, base 2). Using 20 bits for a 2-attribute
    /// scheme would make leaf zones 1024x finer per dim, exploding the
    /// surrogate-chain fan-out of wide subscriptions; size to the scheme.
    static Config for_dims(std::size_t dims, int base_bits = 1,
                           int splits_per_dim = 5) {
      const int digits = int(dims) * splits_per_dim;
      return Config{base_bits, std::min(60, digits * base_bits)};
    }
  };

  /// `space` is the scheme's domain rectangle (all dimensions non-empty).
  ZoneSystem(HyperRect space, Config cfg);

  int base_bits() const noexcept { return cfg_.base_bits; }
  int base() const noexcept { return 1 << cfg_.base_bits; }
  /// Maximum tree depth m in digits (leaf level).
  int max_level() const noexcept { return max_level_; }
  std::size_t dimensions() const noexcept { return space_.dimensions(); }
  const HyperRect& space() const noexcept { return space_; }

  Zone root() const noexcept { return Zone{0, 0}; }
  bool is_leaf(const Zone& z) const noexcept { return z.level == max_level_; }

  /// Parent zone; z must not be the root.
  Zone parent(const Zone& z) const;

  /// The `digit`-th child (0 <= digit < base()); z must not be a leaf.
  Zone child(const Zone& z, int digit) const;

  /// Digit at 1-based position i (paper's "i-th digit from the left").
  int digit(const Zone& z, int i) const;

  /// The hyper-rectangle this zone covers (replays the split sequence).
  HyperRect extent(const Zone& z) const;

  /// extent(z).contains(p), without materializing the extent: replays each
  /// dimension's splits with the same arithmetic, so the answer is
  /// bit-identical, and allocates nothing (event matching calls it per
  /// zone-chain member).
  bool extent_contains(const Zone& z, const Point& p) const;

  /// extent(z).dim(j), computed alone with the same arithmetic (so it is
  /// bit-identical) and without allocating.
  Interval extent_interval(const Zone& z, std::size_t j) const;

  /// The `digit`-th of the base() equal parts of `iv`: one split step of
  /// extent(), so narrowing a zone's interval on the dimension split below
  /// it gives its child's interval bit for bit.
  Interval narrow(const Interval& iv, int digit) const;

  /// Dimension split when descending FROM level `level` (0-based level of
  /// the parent); the paper's j = i mod d with i = level+1.
  std::size_t split_dimension(int level) const {
    return std::size_t(level) % space_.dimensions();
  }

  /// Chord key of a zone: code in the top bits, right-padded with one-bits.
  Id key(const Zone& z) const;

  /// Smallest zone that fully covers `range` (LPH for subscriptions).
  /// Descends while one child range covers; stops at max_level().
  Zone locate(const HyperRect& range) const;

  /// Leaf zone containing point `p` (LPH for events). Boundary points
  /// belong to the lower range except at the domain top (half-open split).
  Zone locate(const Point& p) const;

  /// "012|3" style debug form: digits of the code.
  std::string to_string(const Zone& z) const;

 private:
  HyperRect space_;
  Config cfg_;
  int max_level_;
};

}  // namespace hypersub::lph
