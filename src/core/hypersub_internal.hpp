#pragma once
// Helpers shared by the HyperSubSystem translation units.

#include "common/hyperrect.hpp"

namespace hypersub::core {

/// `rect` clipped to `ext`; empty when they do not overlap.
inline HyperRect clip(const HyperRect& rect, const HyperRect& ext) {
  if (rect.empty() || !rect.overlaps(ext)) return HyperRect{};
  return rect.intersect(ext);
}

}  // namespace hypersub::core
