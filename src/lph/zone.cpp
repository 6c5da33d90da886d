#include "lph/zone.hpp"

#include <cassert>
#include <sstream>

namespace hypersub::lph {

ZoneSystem::ZoneSystem(HyperRect space, Config cfg)
    : space_(std::move(space)), cfg_(cfg) {
  assert(!space_.empty());
  assert(cfg_.base_bits >= 1 && cfg_.base_bits <= 8);
  assert(cfg_.code_bits >= cfg_.base_bits && cfg_.code_bits <= 60);
  assert(cfg_.code_bits % cfg_.base_bits == 0);
  for (std::size_t i = 0; i < space_.dimensions(); ++i) {
    assert(space_.dim(i).length() > 0.0);
  }
  max_level_ = cfg_.code_bits / cfg_.base_bits;
}

Zone ZoneSystem::parent(const Zone& z) const {
  assert(z.level > 0);
  return Zone{z.code >> cfg_.base_bits, z.level - 1};
}

Zone ZoneSystem::child(const Zone& z, int digit) const {
  assert(z.level < max_level_);
  assert(digit >= 0 && digit < base());
  return Zone{(z.code << cfg_.base_bits) | std::uint64_t(digit), z.level + 1};
}

int ZoneSystem::digit(const Zone& z, int i) const {
  assert(i >= 1 && i <= z.level);
  const int shift = (z.level - i) * cfg_.base_bits;
  return int((z.code >> shift) & ((std::uint64_t(1) << cfg_.base_bits) - 1));
}

Interval ZoneSystem::narrow(const Interval& iv, int digit) const {
  const double w = iv.length() / double(base());
  const double lo = iv.lo + w * double(digit);
  return Interval{lo, lo + w};
}

HyperRect ZoneSystem::extent(const Zone& z) const {
  HyperRect r = space_;
  for (int i = 1; i <= z.level; ++i) {
    Interval& iv = r.dim(split_dimension(i - 1));
    iv = narrow(iv, digit(z, i));
  }
  return r;
}

Interval ZoneSystem::extent_interval(const Zone& z, std::size_t j) const {
  // Levels i with split_dimension(i - 1) == j, in extent()'s order.
  const std::size_t d = space_.dimensions();
  Interval iv = space_.dim(j);
  for (std::size_t i = j + 1; i <= std::size_t(z.level); i += d) {
    iv = narrow(iv, digit(z, int(i)));
  }
  return iv;
}

bool ZoneSystem::extent_contains(const Zone& z, const Point& p) const {
  assert(p.size() == space_.dimensions());
  for (std::size_t j = 0; j < space_.dimensions(); ++j) {
    if (!extent_interval(z, j).contains(p[j])) return false;
  }
  return true;
}

Id ZoneSystem::key(const Zone& z) const {
  const int used = z.level * cfg_.base_bits;
  assert(used <= kIdBits);
  if (used == 0) return ~Id{0};  // root zone: all (β-1) digits
  const int pad = kIdBits - used;
  const Id ones = pad == 0 ? 0 : ((Id{1} << pad) - 1);
  return (z.code << pad) | ones;
}

Zone ZoneSystem::locate(const HyperRect& range) const {
  assert(range.dimensions() == space_.dimensions());
  HyperRect t = space_;
  Zone z = root();
  for (int i = 1; i <= max_level_; ++i) {
    const std::size_t j = split_dimension(i - 1);
    Interval& iv = t.dim(j);
    // Find the child range that fully covers range.dim(j), if any. Child
    // bounds come from narrow(), as in extent(), so a located range always
    // lies inside its zone's extent.
    int p = -1;
    Interval cand;
    for (int c = 0; c < base(); ++c) {
      cand = narrow(iv, c);
      if (cand.covers(range.dim(j))) {
        p = c;
        break;
      }
    }
    if (p < 0) break;
    iv = cand;
    z = child(z, p);
  }
  return z;
}

Zone ZoneSystem::locate(const Point& p) const {
  assert(p.size() == space_.dimensions());
  assert(space_.contains(p));
  HyperRect t = space_;
  Zone z = root();
  for (int i = 1; i <= max_level_; ++i) {
    const std::size_t j = split_dimension(i - 1);
    Interval& iv = t.dim(j);
    const double w = iv.length() / double(base());
    // Half-open range selection; the top boundary belongs to the last child.
    int c = int((p[j] - iv.lo) / w);
    if (c >= base()) c = base() - 1;
    if (c < 0) c = 0;
    iv = narrow(iv, c);
    z = child(z, c);
  }
  return z;
}

std::string ZoneSystem::to_string(const Zone& z) const {
  std::ostringstream os;
  os << "zone(level=" << z.level << ", code=";
  for (int i = 1; i <= z.level; ++i) os << digit(z, i);
  if (z.level == 0) os << "root";
  os << ')';
  return os.str();
}

}  // namespace hypersub::lph
