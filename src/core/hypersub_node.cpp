#include "core/hypersub_node.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <tuple>

#include "core/state_wire.hpp"

namespace hypersub::core {

void MigratedRepo::build_index() {
  std::vector<HyperRect> ranges;
  ranges.reserve(subs.size());
  for (std::uint32_t r = 0; r < subs.size(); ++r) {
    ranges.push_back(subs.full_rect(r));
  }
  index.assign(std::move(ranges));
}

void MigratedRepo::match(const Point& p, std::vector<SubId>& out,
                         std::vector<std::uint32_t>& scratch) const {
  if (!indexed) {
    const std::uint32_t n = std::uint32_t(subs.size());
    for (std::uint32_t r = 0; r < n; ++r) {
      if (subs.full_contains(r, p)) out.push_back(subs.owner(r));
    }
    return;
  }
  scratch.clear();
  index.candidates(p, scratch);
  for (const std::uint32_t slot : scratch) {
    if (subs.full_contains(slot, p)) out.push_back(subs.owner(slot));
  }
}

void HyperSubNode::record_local(std::uint32_t iid,
                                const pubsub::Subscription& sub) {
  if (local_entries_.size() < iid) local_entries_.resize(iid);
  LocalEntry& e = local_entries_[iid - 1];
  assert(!e.live);
  const auto& dims = sub.range().dims();
  e.off = std::uint32_t(local_pool_.size());
  e.dims = std::uint16_t(dims.size());
  e.live = true;
  local_pool_.insert(local_pool_.end(), dims.begin(), dims.end());
  ++local_live_;
}

bool HyperSubNode::erase_local(std::uint32_t iid) {
  if (iid == 0 || iid > local_entries_.size()) return false;
  LocalEntry& e = local_entries_[iid - 1];
  if (!e.live) return false;
  e.live = false;
  --local_live_;
  return true;
}

std::optional<pubsub::Subscription> HyperSubNode::local_sub(
    std::uint32_t iid) const {
  if (iid == 0 || iid > local_entries_.size()) return std::nullopt;
  const LocalEntry& e = local_entries_[iid - 1];
  if (!e.live) return std::nullopt;
  return pubsub::Subscription(HyperRect(std::vector<Interval>(
      local_pool_.begin() + e.off, local_pool_.begin() + e.off + e.dims)));
}

ZoneState& ZoneStore::zone_state(const ZoneAddr& addr, Id rotated_key) {
  auto [it, inserted] =
      zones_.try_emplace(addr, addr, index_threshold_, cover_);
  if (inserted) {
    // A key aliases a zone and its rightmost descendants, so several zones
    // sharing one key is the normal case, not a collision.
    by_key_[rotated_key].push_back(addr);
  }
  return it->second;
}

void ZoneStore::erase_zone(const ZoneAddr& addr, Id rotated_key) {
  if (zones_.erase(addr) == 0) return;
  auto* addrs = by_key_.find(rotated_key);
  if (addrs == nullptr) return;
  addrs->erase(std::remove(addrs->begin(), addrs->end(), addr), addrs->end());
  if (addrs->empty()) by_key_.erase(rotated_key);
}

void ZoneStore::append_zones_by_key(Id rotated_key,
                                    std::vector<ZoneState*>& out) {
  const auto* addrs = by_key_.find(rotated_key);
  if (addrs == nullptr) return;
  out.reserve(out.size() + addrs->size());
  for (const auto& addr : *addrs) {
    const auto zit = zones_.find(addr);
    if (zit != zones_.end()) out.push_back(&zit->second);
  }
}

std::uint32_t HyperSubNode::accept_migration(Id origin_zone_key,
                                             std::vector<StoredSub> subs) {
  const std::uint32_t token = ++token_counter_;
  MigratedRepo repo;
  repo.origin_zone_key = origin_zone_key;
  repo.indexed = subs.size() >= index_threshold_;
  for (const auto& s : subs) {
    repo.subs.add(s);  // append-never: refs are the dense acceptance order
  }
  if (repo.indexed) repo.build_index();
  migrated_in_.emplace(token, std::move(repo));
  return token;
}

const ZoneStore::SaturatedZones* ZoneStore::find_runs(
    std::uint32_t scheme, std::uint32_t subscheme) const {
  for (const SaturatedZones& s : saturated_) {
    if (s.scheme == scheme && s.subscheme == subscheme) return &s;
  }
  return nullptr;
}

ZoneStore::SaturatedZones& ZoneStore::runs_of(std::uint32_t scheme,
                                              std::uint32_t subscheme) {
  auto it = std::find_if(saturated_.begin(), saturated_.end(),
                         [&](const SaturatedZones& s) {
                           return std::tie(s.scheme, s.subscheme) >=
                                  std::tie(scheme, subscheme);
                         });
  if (it == saturated_.end() || it->scheme != scheme ||
      it->subscheme != subscheme) {
    const Subscheme& ss = (*schemes_)[scheme]->subscheme(subscheme);
    const int max_level = ss.zones().max_level();
    it = saturated_.insert(
        it, SaturatedZones{scheme, subscheme, ss.zones().base_bits(),
                           max_level, ss.rotation(), {},
                           std::vector<std::uint32_t>(
                               std::size_t(max_level) + 2, 0)});
  }
  return *it;
}

std::vector<ZoneStore::Run>::iterator ZoneStore::first_touching(
    SaturatedZones& s, int level, Id code) {
  const auto runs = s.runs.begin();
  return std::partition_point(
      runs + std::ptrdiff_t(s.level_start[std::size_t(level)]),
      runs + std::ptrdiff_t(s.level_start[std::size_t(level) + 1]),
      [&](const Run& r) { return r.hi < code; });
}

void ZoneStore::shift_levels_above(SaturatedZones& s, int level, int delta) {
  for (std::size_t l = std::size_t(level) + 1; l < s.level_start.size(); ++l) {
    s.level_start[l] = std::uint32_t(int(s.level_start[l]) + delta);
  }
}

bool ZoneStore::saturated(const ZoneAddr& addr) const {
  const SaturatedZones* s = find_runs(addr.scheme, addr.subscheme);
  if (s == nullptr) return false;
  const std::span<const Run> runs = level_runs(*s, addr.zone.level);
  const Id code = addr.zone.code;
  // The first run of the level that ends past `code`.
  const auto it = std::partition_point(
      runs.begin(), runs.end(), [&](const Run& r) { return r.hi <= code; });
  return it != runs.end() && it->lo <= code;
}

bool ZoneStore::set_saturated(const ZoneAddr& addr) {
  return set_saturated_run(addr.scheme, addr.subscheme, addr.zone.level,
                           addr.zone.code, addr.zone.code + 1,
                           [](Id, Id) {}) != 0;
}

bool ZoneStore::clear_saturated(const ZoneAddr& addr) {
  if (!saturated(addr)) return false;
  SaturatedZones& s = runs_of(addr.scheme, addr.subscheme);
  const int level = addr.zone.level;
  const Id code = addr.zone.code;
  const auto it = first_touching(s, level, code + 1);
  // `it` is the run holding `code`: cut it out, splitting the run in two
  // when the code is inside.
  if (it->lo == code && it->hi == code + 1) {
    s.runs.erase(it);
    shift_levels_above(s, level, -1);
  } else if (it->lo == code) {
    ++it->lo;
  } else if (it->hi == code + 1) {
    --it->hi;
  } else {
    const Run right{code + 1, it->hi};
    it->hi = code;
    s.runs.insert(std::next(it), right);
    shift_levels_above(s, level, 1);
  }
  --saturated_count_;
  return true;
}

std::uint64_t ZoneStore::mask_at(const SaturatedZones& s, Id key) noexcept {
  // Level L aliases `key` when the key's code padding — its low 64 - L·b
  // bits, rotation taken off — is all ones; every deeper level does too.
  const Id unrotated = key - s.rotation;
  const int ones = std::countr_one(unrotated);
  std::uint64_t mask = 0;
  for (int level =
           std::max(1, (kIdBits - ones + s.base_bits - 1) / s.base_bits);
       level <= s.max_level; ++level) {
    const std::span<const Run> runs = level_runs(s, level);
    if (runs.empty()) continue;
    const Id code = unrotated >> (kIdBits - level * s.base_bits);
    const auto it = std::partition_point(
        runs.begin(), runs.end(), [&](const Run& r) { return r.hi <= code; });
    if (it != runs.end() && it->lo <= code) {
      mask |= std::uint64_t{1} << level;
    }
  }
  return mask;
}

void ZoneStore::merge_rows(std::vector<Row>& rows, std::size_t first) {
  const auto by_key = [](const Row& a, const Row& b) { return a.key < b.key; };
  std::sort(rows.begin() + std::ptrdiff_t(first), rows.end(), by_key);
  std::size_t out = first;
  for (std::size_t i = first; i < rows.size(); ++i) {
    if (out > first && rows[out - 1].key == rows[i].key) {
      rows[out - 1].mask |= rows[i].mask;
    } else {
      rows[out++] = rows[i];
    }
  }
  rows.resize(out);
}

const MigratedRepo* HyperSubNode::find_migrated(std::uint32_t token) const {
  const auto it = migrated_in_.find(token);
  return it == migrated_in_.end() ? nullptr : &it->second;
}

void ZoneStore::save_zones(common::ByteWriter& w) const {
  std::vector<Id> keys;
  keys.reserve(by_key_.size());
  by_key_.for_each([&](const Id& key, const auto&) { keys.push_back(key); });
  std::sort(keys.begin(), keys.end());
  w.u32(std::uint32_t(keys.size()));
  for (const Id key : keys) {
    const auto* addrs = by_key_.find(key);
    w.u64(key);
    w.u32(std::uint32_t(addrs->size()));
    for (const ZoneAddr& addr : *addrs) {
      save_zone_addr(w, addr);
      zones_.at(addr).save(w);
    }
  }
}

void ZoneStore::restore_zones(common::ByteReader& r) {
  const std::uint32_t n_keys = r.u32();
  for (std::uint32_t i = 0; i < n_keys; ++i) {
    const Id key = r.u64();
    const std::uint32_t n_addrs = r.u32();
    auto& addrs = by_key_[key];
    addrs.reserve(n_addrs);
    for (std::uint32_t j = 0; j < n_addrs; ++j) {
      const ZoneAddr addr = load_zone_addr(r);
      addrs.push_back(addr);
      auto [it, inserted] =
          zones_.try_emplace(addr, addr, index_threshold_, cover_);
      assert(inserted);
      it->second.restore(r);
    }
  }
}

void ZoneStore::restore_saturated(common::ByteReader& r) {
  const std::uint32_t n_rows = r.u32();
  for (std::uint32_t i = 0; i < n_rows; ++i) {
    const std::uint32_t scheme = r.u32();
    const std::uint32_t subscheme = r.u32();
    const Id key = r.u64();
    const std::uint64_t mask = r.u64();
    const Subscheme& ss = (*schemes_)[scheme]->subscheme(subscheme);
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
      set_saturated(
          ZoneAddr{scheme, subscheme, ss.zone_at(key, std::countr_zero(m))});
    }
  }
}

// Hashed-container overhead estimate for the node-based maps: one bucket
// pointer per bucket plus, per node, next pointer + cached hash on top of
// the value pair.
constexpr std::size_t kNodeOverhead = 2 * sizeof(void*);

void ZoneStore::tally(ZoneMemoryBreakdown& b) const {
  b.materialized_zones += zones_.size();
  b.chain_records += saturated_count_;
  b.implicit_zones += saturated_count_;
  b.zone_bytes += zones_.bucket_count() * sizeof(void*);
  for (const auto& [addr, z] : zones_) {
    b.zone_bytes += sizeof(addr) + sizeof(z) + kNodeOverhead;
    b.zone_bytes += z.structural_bytes();
    b.sub_bytes += z.store_bytes();
  }
  b.chain_bytes += saturated_.capacity() * sizeof(SaturatedZones);
  for (const SaturatedZones& s : saturated_) {
    b.chain_bytes += s.runs.capacity() * sizeof(Run) +
                     s.level_start.capacity() * sizeof(std::uint32_t);
  }
  b.key_index_bytes += by_key_.memory_bytes();
  by_key_.for_each([&](const Id&, const std::vector<ZoneAddr>& addrs) {
    b.key_index_bytes += addrs.capacity() * sizeof(ZoneAddr);
  });
}

void ZoneStore::clear() {
  zones_.clear();
  by_key_.clear();
  saturated_.clear();
  saturated_count_ = 0;
}

std::size_t HyperSubNode::load() const {
  std::size_t n = 0;
  for (const auto& [addr, z] : primary_.zones()) {
    n += z.subscription_count() + z.buckets().size();
  }
  for (const auto& [tok, repo] : migrated_in_) n += repo.subs.size();
  return n;
}

std::size_t HyperSubNode::stored_entries() const {
  std::size_t n = 0;
  for (const auto& [addr, z] : primary_.zones()) n += z.entry_count();
  n += primary_.saturated_count();  // one piece entry per saturated zone
  for (const auto& [tok, repo] : migrated_in_) n += repo.subs.size();
  return n;
}

ZoneMemoryBreakdown HyperSubNode::memory_breakdown() const {
  ZoneMemoryBreakdown b;
  primary_.tally(b);
  replicas_.tally(b);
  b.sub_bytes += local_entries_.capacity() * sizeof(LocalEntry) +
                 local_pool_.capacity() * sizeof(Interval);
  b.sub_bytes += migrated_in_.bucket_count() * sizeof(void*);
  for (const auto& [tok, repo] : migrated_in_) {
    b.sub_bytes += sizeof(tok) + sizeof(repo) + kNodeOverhead;
    b.sub_bytes += repo.subs.memory_bytes();
    if (repo.indexed) b.sub_bytes += repo.index.memory_bytes();
  }
  return b;
}

void HyperSubNode::save(common::ByteWriter& w) const {
  w.u32(iid_counter_);
  w.u32(token_counter_);

  // Subscriber-side store, verbatim (offsets included) so a save of the
  // restored node is byte-identical to this one.
  w.u32(std::uint32_t(local_entries_.size()));
  for (const LocalEntry& e : local_entries_) {
    w.u32(e.off);
    w.u16(e.dims);
    w.boolean(e.live);
  }
  w.u32(std::uint32_t(local_pool_.size()));
  for (const Interval& iv : local_pool_) {
    w.f64(iv.lo);
    w.f64(iv.hi);
  }
  w.u64(local_live_);

  // v3's layout with the replica rows appended after the primary's.
  const auto all = [](Id) { return true; };
  primary_.save_zones(w);
  replicas_.save_zones(w);
  primary_.save_saturated(w, all);
  replicas_.save_saturated(w, all);

  std::vector<std::uint32_t> tokens;
  tokens.reserve(migrated_in_.size());
  for (const auto& [tok, repo] : migrated_in_) tokens.push_back(tok);
  std::sort(tokens.begin(), tokens.end());
  w.u32(std::uint32_t(tokens.size()));
  for (const std::uint32_t tok : tokens) {
    const MigratedRepo& repo = migrated_in_.at(tok);
    w.u32(tok);
    w.u64(repo.origin_zone_key);
    w.boolean(repo.indexed);
    // Refs are the dense acceptance order 0..n-1 (append-never repo).
    const std::uint32_t n = std::uint32_t(repo.subs.size());
    w.u32(n);
    for (std::uint32_t ref = 0; ref < n; ++ref) {
      save_stored_sub(w, repo.subs.materialize(ref));
    }
  }
}

void HyperSubNode::restore(common::ByteReader& r) {
  local_entries_.clear();
  local_pool_.clear();
  local_live_ = 0;
  reset_surrogate_state();

  iid_counter_ = r.u32();
  token_counter_ = r.u32();

  const std::uint32_t n_entries = r.u32();
  local_entries_.reserve(n_entries);
  for (std::uint32_t i = 0; i < n_entries; ++i) {
    LocalEntry e;
    e.off = r.u32();
    e.dims = r.u16();
    e.live = r.boolean();
    local_entries_.push_back(e);
  }
  const std::uint32_t n_pool = r.u32();
  local_pool_.reserve(n_pool);
  for (std::uint32_t i = 0; i < n_pool; ++i) {
    const double lo = r.f64();
    const double hi = r.f64();
    local_pool_.push_back(Interval{lo, hi});
  }
  local_live_ = std::size_t(r.u64());

  primary_.restore_zones(r);
  replicas_.restore_zones(r);
  primary_.restore_saturated(r);
  replicas_.restore_saturated(r);

  const std::uint32_t n_repos = r.u32();
  for (std::uint32_t i = 0; i < n_repos; ++i) {
    const std::uint32_t tok = r.u32();
    MigratedRepo repo;
    repo.origin_zone_key = r.u64();
    repo.indexed = r.boolean();
    const std::uint32_t n = r.u32();
    for (std::uint32_t j = 0; j < n; ++j) {
      repo.subs.add(load_stored_sub(r));
    }
    if (repo.indexed) repo.build_index();
    migrated_in_.emplace(tok, std::move(repo));
  }
}

void HyperSubNode::reset_surrogate_state() {
  primary_.clear();
  replicas_.clear();
  migrated_in_.clear();
}

}  // namespace hypersub::core
