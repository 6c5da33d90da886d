#include "core/hypersub_system.hpp"

#include <utility>
#include <vector>

#include "core/hypersub_internal.hpp"

namespace hypersub::core {

// ---------------------------------------------------------------------------
// Saturated zones
//
// A piece-only zone whose piece is exactly its extent is a code in its
// store's saturated runs; every other zone is a ZoneState. Pieces, installs
// and buckets landing on a saturated zone materialize it first, and a
// ZoneState left holding only its extent folds back, so the two forms never
// overlap.
// ---------------------------------------------------------------------------

void seed_saturated(ZoneState& zs, const Subscheme& ss, const lph::Zone& z) {
  const lph::ZoneSystem& zsys = ss.zones();
  const HyperRect ext = zsys.extent(z);
  zs.set_parent_piece(ext, lph::zone_key(zsys, zsys.parent(z), ss.rotation()));
  if (zsys.is_leaf(z)) return;
  for (int digit = 0; digit < zsys.base(); ++digit) {
    HyperRect child = clip(ext, zsys.extent(zsys.child(z, digit)));
    if (!child.empty()) zs.set_child_piece(digit, std::move(child));
  }
}

std::uint64_t saturated_fingerprint(const Subscheme& ss, const lph::Zone& z) {
  const lph::ZoneSystem& zsys = ss.zones();
  const HyperRect ext = zsys.extent(z);
  // clip(ext, extent(child)): the child's extent differs from `ext` only
  // on the dimension split below z.
  std::vector<HyperRect> children;
  if (!zsys.is_leaf(z)) {
    const std::size_t split = zsys.split_dimension(z.level);
    const Interval& iv = ext.dim(split);
    children.resize(std::size_t(zsys.base()));
    for (int digit = 0; digit < zsys.base(); ++digit) {
      const Interval child = zsys.narrow(iv, digit);
      if (!iv.overlaps(child)) continue;
      HyperRect& piece = children[std::size_t(digit)];
      piece = ext;
      piece.dim(split) = iv.intersect(child);
    }
  }
  return ZoneState::piece_only_fingerprint(
      ext, lph::zone_key(zsys, zsys.parent(z), ss.rotation()), children);
}

bool HyperSubSystem::saturates(const ZoneAddr& addr,
                               const HyperRect& piece) const {
  // piece == extent(zone), one interval at a time along extent()'s own
  // narrowing: every replica copy of a write runs this fold check, so it
  // builds no rectangle.
  const lph::ZoneSystem& zsys =
      schemes_[addr.scheme]->subscheme(addr.subscheme).zones();
  if (addr.zone.level < 1 || piece.dimensions() != zsys.dimensions()) {
    return false;
  }
  for (std::size_t j = 0; j < zsys.dimensions(); ++j) {
    if (!(piece.dim(j) == zsys.extent_interval(addr.zone, j))) return false;
  }
  return true;
}

ZoneState& HyperSubSystem::materialize_saturated(ZoneStore& store,
                                                 const ZoneAddr& addr,
                                                 Id rotated_key) {
  ZoneState& zs = store.zone_state(addr, rotated_key);
  if (store.clear_saturated(addr)) {
    seed_saturated(zs, schemes_[addr.scheme]->subscheme(addr.subscheme),
                   addr.zone);
  }
  return zs;
}

bool HyperSubSystem::take_piece(ZoneStore& store, const ZoneAddr& addr,
                                Id rotated_key, const HyperRect& piece) {
  if (store.zones().contains(addr)) return true;
  if (store.saturated(addr)) {
    if (saturates(addr, piece)) return false;  // its own derived piece
    materialize_saturated(store, addr, rotated_key);
    return true;
  }
  return !piece.empty();  // an empty piece for a zone that stores nothing
}

void HyperSubSystem::fold_saturated(ZoneStore& store, const ZoneAddr& addr,
                                    Id rotated_key) {
  if (addr.zone.level < 1) return;
  const auto it = store.zones().find(addr);
  if (it == store.zones().end()) return;
  const ZoneState& zs = it->second;
  if (zs.subscription_count() > 0 || !zs.buckets().empty()) return;
  const auto& pp = zs.parent_piece();
  if (!pp || pp->first.empty()) {
    // Stores nothing at all: a husk — drop it outright.
    if (zs.summary().empty()) store.erase_zone(addr, rotated_key);
    return;
  }
  if (!saturates(addr, pp->first)) return;
  store.erase_zone(addr, rotated_key);
  store.set_saturated(addr);
}

}  // namespace hypersub::core
