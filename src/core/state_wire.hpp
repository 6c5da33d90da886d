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
