#include "core/zone_state.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>

#include "common/ids.hpp"
#include "core/state_wire.hpp"

namespace hypersub::core {

namespace {
const HyperRect kEmptyRect{};
const std::vector<MigratedBucket> kNoBuckets{};
constexpr std::size_t kNoPos = ~std::size_t{0};
constexpr SubArena::Ref kHole = SubArena::kNullRef;

// Summary bounds order -0.0 below +0.0 (IEEE totalOrder on the zeros).
// With std::min a hull keeps whichever zero it met first; in this order a
// hull has the same bits whatever order its parts come and go in, which
// the running summary needs to equal a fresh fold.
bool below(double a, double b) noexcept {
  return a < b || (a == b && std::signbit(a) && !std::signbit(b));
}

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

Interval widen(Interval a, const Interval& b) noexcept {
  if (below(b.lo, a.lo)) a.lo = b.lo;
  if (below(a.hi, b.hi)) a.hi = b.hi;
  return a;
}

}  // namespace

ZoneState::SubStore& ZoneState::store() {
  if (!store_) store_ = std::make_unique<SubStore>();
  return *store_;
}

const std::vector<MigratedBucket>& ZoneState::buckets() const noexcept {
  return store_ ? store_->buckets : kNoBuckets;
}

void ZoneState::set_index_threshold(std::size_t threshold) {
  index_threshold_ = threshold;
  // A piece-only zone holds zero subscriptions; materialize its store only
  // if the new threshold indexes the empty set (threshold 0).
  if (!store_ && threshold > 0) return;
  SubStore& st = store();
  build_index_if_due();
  if (st.indexed && representatives(st) < index_threshold_) drop_index();
}

void ZoneState::build_index() {
  SubStore& st = store();
  // One pass over the representatives in insertion order: slot i is
  // order[i], as inserting them one by one would have assigned.
  compact(st);
  std::vector<HyperRect> rects;
  rects.reserve(st.order.size());
  for (const SubArena::Ref ref : st.order) {
    rects.push_back(st.arena.full_rect(ref));
  }
  st.index.assign(std::move(rects));
  st.slots.resize(st.order.size());
  st.pos_of_slot.resize(st.order.size());
  for (std::size_t i = 0; i < st.order.size(); ++i) {
    st.slots[i] = std::uint32_t(i);
    st.pos_of_slot[i] = i;
  }
  st.indexed = true;
}

bool ZoneState::index_due() const noexcept {
  return store_ && !store_->indexed &&
         representatives(*store_) >= index_threshold_;
}

void ZoneState::drop_index() {
  SubStore& st = store();
  st.index = SubIndex{};
  st.slots.clear();
  st.pos_of_slot.clear();
  st.indexed = false;
}

void ZoneState::compact(SubStore& st) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < st.order.size(); ++i) {
    if (st.order[i] == kHole) continue;
    st.order[kept] = st.order[i];
    if (st.indexed) {
      st.slots[kept] = st.slots[i];
      st.pos_of_slot[st.slots[kept]] = kept;
    }
    ++kept;
  }
  st.order.resize(kept);
  if (st.indexed) st.slots.resize(kept);
  st.holes = 0;
}

void ZoneState::probe_index(SubStore& st, const Point& p) const {
  st.cand.clear();
  st.index.candidates(p, st.cand);
  // Candidates arrive in slot order; callers want insertion order.
  for (auto& c : st.cand) c = std::uint32_t(st.pos_of_slot[c]);
  std::sort(st.cand.begin(), st.cand.end());
}

void ZoneState::probe_corner(SubStore& st,
                             std::span<const Interval> full) const {
  st.probe.clear();
  for (const Interval& d : full) st.probe.push_back(d.lo);
  probe_index(st, st.probe);
}

SubArena::Ref ZoneState::find_coverer(SubStore& st,
                                      const HyperRect& full) const {
  if (!st.indexed) {
    for (const SubArena::Ref ref : st.order) {
      if (ref != kHole && st.arena.full_covers(ref, full.dims())) return ref;
    }
    return SubArena::kNullRef;
  }
  // Take the first covering candidate in insertion order (same pick as the
  // scan path, so indexed and scan zones quench identically).
  probe_corner(st, full.dims());
  for (const std::uint32_t pos : st.cand) {
    const SubArena::Ref ref = st.order[pos];
    if (st.arena.full_covers(ref, full.dims())) return ref;
  }
  return SubArena::kNullRef;
}

void ZoneState::push_representative(SubStore& st, SubArena::Ref ref,
                                    const HyperRect& full) {
  if (st.indexed) {
    const std::uint32_t slot = st.index.insert(full);
    st.slots.push_back(slot);
    if (st.pos_of_slot.size() <= slot) st.pos_of_slot.resize(slot + 1, kNoPos);
    st.pos_of_slot[slot] = st.order.size();
  }
  st.order.push_back(ref);
  hull_add(st, st.arena.projected(ref));
}

void ZoneState::append_representative(SubStore& st, SubArena::Ref ref) {
  push_representative(st, ref, st.arena.full_rect(ref));
  build_index_if_due();
}

void ZoneState::rehome_coveree(SubStore& st, SubArena::Ref ref) {
  const HyperRect full = st.arena.full_rect(ref);
  const SubArena::Ref rep = find_coverer(st, full);
  if (rep != SubArena::kNullRef) {
    st.covers.quench(rep, ref);
    return;
  }
  // Promoted representatives immediately become coverer candidates for the
  // orphans re-homed after them (exact-duplicate groups collapse back to
  // one representative).
  append_representative(st, ref);
  ++cover_promotions_;
}

bool ZoneState::add_subscription(StoredSub s) {
  const bool grew = stage_subscription(std::move(s));
  build_index_if_due();
  return grew;
}

bool ZoneState::stage_subscription(StoredSub s) {
  SubStore& st = store();
  if (cover_) {
    const SubArena::Ref rep = find_coverer(st, s.sub.range());
    if (rep != SubArena::kNullRef) {
      // Quenched: stored and matched via the representative, but never
      // registered in order_/SubIndex. Projection is monotone, so the
      // quenched projection is inside the representative's — the summary
      // cannot grow and nothing propagates upward.
      assert(summary_.covers(s.projected));
      st.covers.quench(rep, st.arena.add(s));
      return false;
    }
  }
  push_representative(st, st.arena.add(s), s.sub.range());
  return widen_summary(s.projected);
}

ZoneState::Removal ZoneState::remove_subscription(const SubId& owner,
                                                  const HyperRect& range) {
  if (!store_) return {};
  SubStore& st = *store_;
  // The representatives that may hold the subscription or cover it, in
  // insertion order: in an indexed zone those the index holds at the
  // range's lo corner, otherwise all of them.
  if (st.indexed) {
    probe_corner(st, range.dims());
  } else {
    st.cand.clear();
    for (std::size_t i = 0; i < st.order.size(); ++i) {
      if (st.order[i] != kHole) st.cand.push_back(std::uint32_t(i));
    }
  }
  for (const std::uint32_t pos : st.cand) {
    if (st.arena.owner(st.order[pos]) == owner) {
      return {.removed = true,
              .summary_changed = remove_representative(st, pos)};
    }
  }
  // Not a representative — maybe a quenched coveree of one of them. The
  // coverees are enumerated per representative, never through the hash
  // maps, so lookup order is deterministic.
  if (!cover_ || st.covers.empty()) return {};
  for (const std::uint32_t pos : st.cand) {
    const auto* list = st.covers.coverees(st.order[pos]);
    if (list == nullptr) continue;
    for (const SubArena::Ref ref : *list) {
      if (st.arena.owner(ref) == owner) {
        st.covers.release(ref);
        st.arena.remove(ref);
        // A coveree lies inside its representative's rect, which is
        // still registered: the summary is unchanged.
        return {.removed = true};
      }
    }
  }
  return {};
}

bool ZoneState::remove_representative(SubStore& st, std::size_t pos) {
  const SubArena::Ref ref = st.order[pos];
  // Un-quench promotion: the leaving representative's coverees re-home in
  // quench order — each re-quenches under the first surviving coverer or
  // becomes a representative itself.
  std::vector<SubArena::Ref> orphans = st.covers.take_coverees(ref);
  hull_remove(st, st.arena.projected(ref));
  st.arena.remove(ref);
  st.order[pos] = kHole;
  ++st.holes;
  if (st.indexed) {
    // Once built, the index sticks below the threshold (hysteresis): churn
    // around the threshold should not oscillate between builds and drops.
    st.index.remove(st.slots[pos]);
    st.pos_of_slot[st.slots[pos]] = kNoPos;
  }
  for (const SubArena::Ref o : orphans) rehome_coveree(st, o);
  if (2 * st.holes > st.order.size()) compact(st);
  return recompute_summary();
}

bool ZoneState::set_parent_piece(HyperRect rect, Id parent_key) {
  // An empty rect clears the piece (the parent's summary shrank away from
  // this child). Replace-then-recompute also handles shrinking pieces.
  if (rect.empty()) {
    if (!parent_piece_) return false;
    parent_piece_.reset();
  } else {
    parent_piece_ = {std::move(rect), parent_key};
  }
  return recompute_summary();
}

void ZoneState::add_migrated_bucket(MigratedBucket b) {
  SubStore& st = store();
  st.buckets.push_back(std::move(b));
  // Migrated subs were already part of the summary before migration; the
  // bucket hull cannot grow it, but hull anyway for safety.
  widen_summary(st.buckets.back().summary);
}

std::vector<StoredSub> ZoneState::extract_subscribers_in_arc(Id lo, Id hi) {
  if (!store_) return {};
  SubStore& st = *store_;
  std::vector<StoredSub> out;
  // Coverees leaving with the arc (their relation is dropped and they are
  // materialized after the representatives), and coverees staying behind
  // while their representative leaves (re-homed below).
  std::vector<SubArena::Ref> leaving_coverees;
  std::vector<SubArena::Ref> orphans;
  for (std::size_t i = 0; i < st.order.size(); ++i) {
    const SubArena::Ref ref = st.order[i];
    if (ref == kHole) continue;
    const bool leaves =
        ring::in_closed_open(st.arena.owner(ref).target, lo, hi);
    if (cover_) {
      if (const auto* list = st.covers.coverees(ref)) {
        for (const SubArena::Ref c : *list) {
          if (ring::in_closed_open(st.arena.owner(c).target, lo, hi)) {
            leaving_coverees.push_back(c);
          } else if (leaves) {
            orphans.push_back(c);
          }
        }
      }
      if (leaves) st.covers.take_coverees(ref);
    }
    if (!leaves) continue;
    if (st.indexed) {
      st.index.remove(st.slots[i]);
      st.pos_of_slot[st.slots[i]] = kNoPos;
    }
    hull_remove(st, st.arena.projected(ref));
    out.push_back(st.arena.materialize(ref));
    st.arena.remove(ref);
    st.order[i] = kHole;
    ++st.holes;
  }
  compact(st);
  for (const SubArena::Ref c : leaving_coverees) {
    st.covers.release(c);  // no-op for coverees of a representative that left
    out.push_back(st.arena.materialize(c));
    st.arena.remove(c);
  }
  for (const SubArena::Ref o : orphans) rehome_coveree(st, o);
  // Shrink the summary exactly. Leaving it "still a valid cover" (the old
  // contract) meant a donor kept attracting events that matched nothing
  // locally forever after a migration — and after a failed pointer leg,
  // with no bucket to forward through, those events were pure waste.
  recompute_summary();
  return out;
}

void ZoneState::match(const Point& full, const Point& projected,
                      std::vector<SubId>& out) const {
  if (store_) {
    SubStore& st = *store_;
    // A representative hit is expanded to its coverees right away (quench
    // order), each re-checked exactly: a coveree's rect is contained in the
    // representative's but may still exclude this event.
    const bool expand = cover_ && !st.covers.empty();
    const auto emit = [&](SubArena::Ref ref) {
      out.push_back(st.arena.owner(ref));
      if (!expand) return;
      if (const auto* list = st.covers.coverees(ref)) {
        for (const SubArena::Ref c : *list) {
          if (st.arena.full_contains(c, full)) {
            out.push_back(st.arena.owner(c));
          }
        }
      }
    };
    if (!st.indexed) {
      for (const SubArena::Ref ref : st.order) {
        if (ref != kHole && st.arena.full_contains(ref, full)) emit(ref);
      }
    } else {
      // Emit in insertion order so the indexed path is bit-for-bit
      // identical to the scan (the parity tests rely on it, and so does any
      // downstream consumer of delivery order).
      probe_index(st, full);
      for (const std::uint32_t pos : st.cand) {
        const SubArena::Ref ref = st.order[pos];
        if (st.arena.full_contains(ref, full)) emit(ref);
      }
    }
  }
  if (parent_piece_ && parent_piece_->first.contains(projected)) {
    out.push_back(SubId{parent_piece_->second, 0, SubIdKind::kZone});
  }
  if (store_) {
    for (const auto& b : store_->buckets) {
      // Hull first (cheap reject), then the exact per-sub rects: an event in
      // the hull's dead corners would otherwise chase the pointer and match
      // nothing at the acceptor. Empty sub_rects = trust the hull (tests
      // installing bare buckets).
      if (!b.summary.contains(projected)) continue;
      if (!b.sub_rects.empty()) {
        bool hit = false;
        for (const HyperRect& r : b.sub_rects) {
          if (r.contains(projected)) {
            hit = true;
            break;
          }
        }
        if (!hit) continue;
      }
      out.push_back(b.pointer);
    }
  }
}

std::vector<StoredSub> ZoneState::subscriptions() const {
  if (!store_) return {};
  std::vector<StoredSub> out;
  out.reserve(store_->arena.size());
  for (const SubArena::Ref ref : store_->order) {
    if (ref == kHole) continue;
    out.push_back(store_->arena.materialize(ref));
    if (const auto* list = store_->covers.coverees(ref)) {
      for (const SubArena::Ref c : *list) {
        out.push_back(store_->arena.materialize(c));
      }
    }
  }
  return out;
}

const HyperRect& ZoneState::child_piece(int digit) const {
  if (std::size_t(digit) >= child_pieces_.size()) return kEmptyRect;
  return child_pieces_[std::size_t(digit)];
}

void ZoneState::set_child_piece(int digit, HyperRect piece) {
  if (piece.empty()) {
    // Clearing: release the cache vector entirely when the last non-empty
    // entry goes — zones demoted to structural (and later folded)
    // must not keep a base-sized rect vector alive.
    if (std::size_t(digit) >= child_pieces_.size()) return;
    child_pieces_[std::size_t(digit)] = HyperRect{};
    for (const HyperRect& p : child_pieces_) {
      if (!p.empty()) return;
    }
    child_pieces_ = {};
    return;
  }
  if (std::size_t(digit) >= child_pieces_.size()) {
    child_pieces_.resize(std::size_t(digit) + 1);
  }
  child_pieces_[std::size_t(digit)] = std::move(piece);
}

HyperRect ZoneState::exact_summary() const {
  std::vector<Interval> acc;
  const auto fold = [&](std::span<const Interval> d) {
    if (d.empty()) return;
    if (acc.empty()) {
      acc.assign(d.begin(), d.end());
      return;
    }
    assert(acc.size() == d.size());
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = widen(acc[i], d[i]);
  };
  if (store_) {
    for (const SubArena::Ref ref : store_->order) {
      if (ref != kHole) fold(store_->arena.projected(ref));
    }
  }
  if (parent_piece_) fold(parent_piece_->first.dims());
  if (store_) {
    for (const auto& b : store_->buckets) fold(b.summary.dims());
  }
  return HyperRect(std::move(acc));
}

void ZoneState::hull_add(SubStore& st, std::span<const Interval> projected) {
  if (st.hull.empty()) {
    st.hull.resize(projected.size());
    for (std::size_t i = 0; i < projected.size(); ++i) {
      st.hull[i] = Bound{projected[i], 1, 1};
    }
    return;
  }
  assert(st.hull.size() == projected.size());
  for (std::size_t i = 0; i < projected.size(); ++i) {
    Bound& b = st.hull[i];
    const Interval& p = projected[i];
    if (below(p.lo, b.iv.lo)) {
      b.iv.lo = p.lo;
      b.lo_support = 1;
    } else if (same_bits(p.lo, b.iv.lo)) {
      ++b.lo_support;
    }
    if (below(b.iv.hi, p.hi)) {
      b.iv.hi = p.hi;
      b.hi_support = 1;
    } else if (same_bits(p.hi, b.iv.hi)) {
      ++b.hi_support;
    }
  }
}

void ZoneState::hull_remove(SubStore& st,
                            std::span<const Interval> projected) {
  assert(st.hull.size() == projected.size());
  for (std::size_t i = 0; i < projected.size(); ++i) {
    Bound& b = st.hull[i];
    if (same_bits(projected[i].lo, b.iv.lo)) {
      assert(b.lo_support > 0);
      --b.lo_support;
    }
    if (same_bits(projected[i].hi, b.iv.hi)) {
      assert(b.hi_support > 0);
      --b.hi_support;
    }
  }
}

void ZoneState::settle_hull(SubStore& st) {
  // A bound nobody reaches any more: the hull is still an outer bound of
  // the representatives (with promotions added since), so refold it.
  for (const Bound& b : st.hull) {
    if (b.lo_support != 0 && b.hi_support != 0) continue;
    st.hull.clear();
    for (const SubArena::Ref ref : st.order) {
      if (ref != kHole) hull_add(st, st.arena.projected(ref));
    }
    return;
  }
}

bool ZoneState::widen_summary(const HyperRect& r) {
  if (r.empty()) return false;
  if (summary_.empty()) {
    summary_ = r;
    return true;
  }
  assert(summary_.dimensions() == r.dimensions());
  bool grew = false;
  for (std::size_t i = 0; i < r.dimensions(); ++i) {
    const Interval w = widen(summary_.dim(i), r.dim(i));
    grew = grew || !(w == summary_.dim(i));
    summary_.dim(i) = w;
  }
  return grew;
}

bool ZoneState::recompute_summary() {
  if (store_) settle_hull(*store_);
  // The parts, each a hull already: representatives, piece, buckets.
  const std::vector<Bound>* hull =
      store_ && !store_->hull.empty() ? &store_->hull : nullptr;
  const std::vector<MigratedBucket>& bkts = buckets();
  std::size_t d = 0;
  if (hull != nullptr) {
    d = hull->size();
  } else if (parent_piece_) {
    d = parent_piece_->first.dimensions();
  } else {
    for (const MigratedBucket& b : bkts) d = std::max(d, b.summary.dimensions());
  }
  bool changed = summary_.dimensions() != d;
  if (d == 0) {
    summary_ = HyperRect{};
    return changed;
  }
  if (changed) summary_ = HyperRect(std::vector<Interval>(d));
  for (std::size_t i = 0; i < d; ++i) {
    bool have = false;
    Interval v;
    const auto fold = [&](const Interval& x) {
      v = have ? widen(v, x) : x;
      have = true;
    };
    if (hull != nullptr) fold((*hull)[i].iv);
    if (parent_piece_) fold(parent_piece_->first.dim(i));
    for (const MigratedBucket& b : bkts) {
      if (!b.summary.empty()) fold(b.summary.dim(i));
    }
    changed = changed || !(v == summary_.dim(i));
    summary_.dim(i) = v;
  }
  return changed;
}

bool ZoneState::has_subscription(const SubId& owner) const {
  if (!store_) return false;
  const SubStore& st = *store_;
  for (const SubArena::Ref ref : st.order) {
    if (ref == kHole) continue;
    if (st.arena.owner(ref) == owner) return true;
    if (const auto* list = st.covers.coverees(ref)) {
      for (const SubArena::Ref c : *list) {
        if (st.arena.owner(c) == owner) return true;
      }
    }
  }
  return false;
}

void ZoneState::save(common::ByteWriter& w) const {
  // Parent piece, child-piece cache, summary, promotion counter.
  w.boolean(parent_piece_.has_value());
  if (parent_piece_) {
    save_rect(w, parent_piece_->first);
    w.u64(parent_piece_->second);
  }
  w.u32(std::uint32_t(child_pieces_.size()));
  for (const HyperRect& p : child_pieces_) save_rect(w, p);
  save_rect(w, summary_);
  w.u64(cover_promotions_);

  // The boxed store: representatives in insertion order, each carrying its
  // coverees in quench order, then migrated buckets, then the index flag.
  w.boolean(store_ != nullptr);
  if (!store_) return;
  const SubStore& st = *store_;
  w.u32(std::uint32_t(representatives(st)));
  for (const SubArena::Ref ref : st.order) {
    if (ref == kHole) continue;
    save_stored_sub(w, st.arena.materialize(ref));
    const auto* list = st.covers.coverees(ref);
    w.u32(list ? std::uint32_t(list->size()) : 0);
    if (list) {
      for (const SubArena::Ref c : *list) {
        save_stored_sub(w, st.arena.materialize(c));
      }
    }
  }
  w.u32(std::uint32_t(st.buckets.size()));
  for (const MigratedBucket& b : st.buckets) {
    save_rect(w, b.summary);
    w.u32(std::uint32_t(b.sub_rects.size()));
    for (const HyperRect& r : b.sub_rects) save_rect(w, r);
    save_subid(w, b.pointer);
  }
  w.boolean(st.indexed);
}

void ZoneState::restore(common::ByteReader& r) {
  assert(!store_ && summary_.empty());  // restore into a fresh zone only
  if (r.boolean()) {
    HyperRect rect = load_rect(r);
    const Id parent_key = r.u64();
    parent_piece_ = {std::move(rect), parent_key};
  }
  const std::uint32_t n_children = r.u32();
  child_pieces_.clear();
  child_pieces_.reserve(n_children);
  for (std::uint32_t i = 0; i < n_children; ++i) {
    child_pieces_.push_back(load_rect(r));
  }
  HyperRect summary = load_rect(r);
  cover_promotions_ = r.u64();

  if (r.boolean()) {
    SubStore& st = store();
    const std::uint32_t n_reps = r.u32();
    st.order.reserve(n_reps);
    for (std::uint32_t i = 0; i < n_reps; ++i) {
      // Forced structure: the serialized rep/coveree split is replayed as
      // recorded — no find_coverer re-run, no threshold-triggered index
      // build mid-restore — so refs land in the same insertion order and
      // quench relations the source zone had.
      const SubArena::Ref rep = st.arena.add(load_stored_sub(r));
      st.order.push_back(rep);
      hull_add(st, st.arena.projected(rep));
      const std::uint32_t n_cov = r.u32();
      for (std::uint32_t j = 0; j < n_cov; ++j) {
        st.covers.quench(rep, st.arena.add(load_stored_sub(r)));
      }
    }
    const std::uint32_t n_buckets = r.u32();
    st.buckets.reserve(n_buckets);
    for (std::uint32_t i = 0; i < n_buckets; ++i) {
      MigratedBucket b;
      b.summary = load_rect(r);
      const std::uint32_t n_rects = r.u32();
      b.sub_rects.reserve(n_rects);
      for (std::uint32_t j = 0; j < n_rects; ++j) {
        b.sub_rects.push_back(load_rect(r));
      }
      b.pointer = load_subid(r);
      st.buckets.push_back(std::move(b));
    }
    if (r.boolean()) build_index();
  }
  summary_ = std::move(summary);
}

namespace {

std::uint64_t mix_rect(std::uint64_t h, const HyperRect& r) {
  h = splitmix64(h ^ r.dimensions());
  for (const Interval& d : r.dims()) {
    std::uint64_t lo, hi;
    std::memcpy(&lo, &d.lo, sizeof lo);
    std::memcpy(&hi, &d.hi, sizeof hi);
    h = splitmix64(h ^ lo);
    h = splitmix64(h ^ hi);
  }
  return h;
}

/// fingerprint()'s fold of the zone structure onto the digest `h` of the
/// stored entries: parent piece, cached child pieces, summary.
std::uint64_t fold_structure(std::uint64_t h, const HyperRect* piece,
                             Id parent_key,
                             std::span<const HyperRect> child_pieces,
                             const HyperRect& summary) {
  if (piece != nullptr) h = mix_rect(splitmix64(h ^ parent_key), *piece);
  // Child pieces compare as a sparse map digit -> piece: trailing empties
  // (a lazily-sized cache) must not distinguish two equivalent zones.
  for (std::size_t d = 0; d < child_pieces.size(); ++d) {
    if (child_pieces[d].empty()) continue;
    h = mix_rect(splitmix64(h ^ d), child_pieces[d]);
  }
  return mix_rect(h, summary);
}

/// The digest of no stored entries.
constexpr std::uint64_t kNoEntries = 0x9e3779b9ull;

}  // namespace

std::uint64_t ZoneState::fingerprint() const {
  const auto mix_subid = [](std::uint64_t h, const SubId& s) {
    h = splitmix64(h ^ s.target);
    h = splitmix64(h ^ ((std::uint64_t(s.iid) << 8) | std::uint64_t(s.kind)));
    return h;
  };

  // Order-insensitive over the stored set: hash each entry independently,
  // sort the digests, fold. Protocol joins permute insertion order and
  // quench assignment relative to an oracle build; both are semantically
  // irrelevant to delivery sets.
  std::vector<std::uint64_t> parts;
  if (store_) {
    const SubStore& st = *store_;
    const auto sub_digest = [&](SubArena::Ref ref) {
      std::uint64_t h = mix_subid(0x5b5b5b5bull, st.arena.owner(ref));
      h = mix_rect(h, st.arena.full_rect(ref));
      return mix_rect(h, st.arena.projected_rect(ref));
    };
    for (const SubArena::Ref ref : st.order) {
      if (ref == kHole) continue;
      parts.push_back(sub_digest(ref));
      if (const auto* list = st.covers.coverees(ref)) {
        for (const SubArena::Ref c : *list) parts.push_back(sub_digest(c));
      }
    }
    for (const MigratedBucket& b : st.buckets) {
      std::uint64_t h = mix_rect(0xb0b0b0b0ull, b.summary);
      for (const HyperRect& r : b.sub_rects) h = mix_rect(h, r);
      parts.push_back(mix_subid(h, b.pointer));
    }
  }
  std::sort(parts.begin(), parts.end());
  std::uint64_t h = kNoEntries;
  for (const std::uint64_t p : parts) h = splitmix64(h ^ p);
  return fold_structure(h, parent_piece_ ? &parent_piece_->first : nullptr,
                        parent_piece_ ? parent_piece_->second : 0,
                        child_pieces_, summary_);
}

std::uint64_t ZoneState::piece_only_fingerprint(
    const HyperRect& piece, Id parent_key,
    std::span<const HyperRect> child_pieces) {
  // Nothing stored but the piece, so the summary is the piece.
  return fold_structure(kNoEntries, &piece, parent_key, child_pieces, piece);
}

namespace {

std::size_t rect_heap_bytes(const HyperRect& r) noexcept {
  return r.dims().capacity() * sizeof(Interval);
}

}  // namespace

std::size_t ZoneState::structural_bytes() const noexcept {
  std::size_t bytes = rect_heap_bytes(summary_);
  if (parent_piece_) bytes += rect_heap_bytes(parent_piece_->first);
  bytes += child_pieces_.capacity() * sizeof(HyperRect);
  for (const HyperRect& p : child_pieces_) bytes += rect_heap_bytes(p);
  return bytes;
}

std::size_t ZoneState::store_bytes() const noexcept {
  if (!store_) return 0;
  const SubStore& st = *store_;
  std::size_t bytes = sizeof(SubStore) + st.arena.memory_bytes() +
                      st.order.capacity() * sizeof(SubArena::Ref) +
                      st.hull.capacity() * sizeof(Bound) +
                      st.buckets.capacity() * sizeof(MigratedBucket) +
                      st.slots.capacity() * sizeof(std::uint32_t) +
                      st.pos_of_slot.capacity() * sizeof(std::size_t) +
                      st.cand.capacity() * sizeof(std::uint32_t) +
                      st.probe.capacity() * sizeof(double);
  if (st.indexed) bytes += st.index.memory_bytes();
  for (const MigratedBucket& b : st.buckets) {
    bytes += rect_heap_bytes(b.summary) +
             b.sub_rects.capacity() * sizeof(HyperRect);
    for (const HyperRect& r : b.sub_rects) bytes += rect_heap_bytes(r);
  }
  return bytes;
}

}  // namespace hypersub::core
