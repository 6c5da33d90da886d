#pragma once
// Wire encodings of the core value types shared by zone-state transfer
// (join/leave) and whole-system checkpoints: HyperRect, SubId, StoredSub.
// Kept in one place so the two features can never drift apart on layout.

#include <cstdint>
#include <vector>

#include "common/hyperrect.hpp"
#include "common/wire.hpp"
#include "core/sub_arena.hpp"
#include "core/subid.hpp"
#include "core/zone_state.hpp"

namespace hypersub::core {

inline void save_rect(common::ByteWriter& w, const HyperRect& r) {
  w.u32(std::uint32_t(r.dimensions()));
  for (const Interval& d : r.dims()) {
    w.f64(d.lo);
    w.f64(d.hi);
  }
}

inline HyperRect load_rect(common::ByteReader& r) {
  const std::uint32_t n = r.u32();
  std::vector<Interval> dims;
  dims.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const double lo = r.f64();
    const double hi = r.f64();
    dims.push_back(Interval{lo, hi});
  }
  return HyperRect(std::move(dims));
}

inline void save_subid(common::ByteWriter& w, const SubId& s) {
  w.u64(s.target);
  w.u32(s.iid);
  w.u8(std::uint8_t(s.kind));
}

inline SubId load_subid(common::ByteReader& r) {
  SubId s;
  s.target = r.u64();
  s.iid = r.u32();
  s.kind = SubIdKind(r.u8());
  return s;
}

inline void save_zone_addr(common::ByteWriter& w, const ZoneAddr& a) {
  w.u32(a.scheme);
  w.u32(a.subscheme);
  w.u64(a.zone.code);
  w.u32(std::uint32_t(a.zone.level));
}

inline ZoneAddr load_zone_addr(common::ByteReader& r) {
  ZoneAddr a;
  a.scheme = r.u32();
  a.subscheme = r.u32();
  a.zone.code = r.u64();
  a.zone.level = int(r.u32());
  return a;
}

/// One chain record of a wire-v2 node image: a run of piece-only zones
/// from a head down to `tail` along one parent path (`span` levels), the
/// piece installed at the head, the head's parent key, and one rotated key
/// per member. Member L's piece is piece ∩ extent(member L). v3 images keep
/// these zones as ZoneStates or saturated-zone bits instead; v2 records are
/// only read, and expanded on restore.
struct V2Chain {
  std::uint32_t scheme = 0;
  std::uint32_t subscheme = 0;
  lph::Zone tail;
  std::uint32_t span = 0;
  HyperRect piece;
  Id parent_key = 0;
  std::vector<Id> level_keys;  ///< member keys, head..tail
};

inline V2Chain load_v2_chain(common::ByteReader& r) {
  V2Chain c;
  c.scheme = r.u32();
  c.subscheme = r.u32();
  c.tail.code = r.u64();
  c.tail.level = int(r.u32());
  c.span = r.u32();
  c.piece = load_rect(r);
  c.parent_key = r.u64();
  c.level_keys.reserve(c.span);
  for (std::uint32_t i = 0; i < c.span; ++i) c.level_keys.push_back(r.u64());
  return c;
}

inline void save_stored_sub(common::ByteWriter& w, const StoredSub& s) {
  save_subid(w, s.owner);
  save_rect(w, s.sub.range());
  save_rect(w, s.projected);
}

inline StoredSub load_stored_sub(common::ByteReader& r) {
  StoredSub s;
  s.owner = load_subid(r);
  s.sub = pubsub::Subscription(load_rect(r));
  s.projected = load_rect(r);
  return s;
}

}  // namespace hypersub::core
