#include "core/hypersub_system.hpp"

#include <vector>

#include "core/hypersub_internal.hpp"

namespace hypersub::core {

bool HyperSubSystem::check_zone_invariants() const {
  // Per store, primary and replica alike: stored subscriptions inside the
  // extent, exact summaries, the fold rule and well-formed saturated zones
  // that no ZoneState shadows. Cached child pieces are checked on primaries
  // only: replicas never propagate, so their caches are never kept up.
  for (const auto& nd : nodes_) {
    const bool live = dht_.network().alive(nd->host());
    for (const ZoneStore* store : {&nd->primary(), &nd->replicas()}) {
      for (const auto& [addr, zone] : store->zones()) {
        const SchemeRuntime& rt = *schemes_[addr.scheme];
        const Subscheme& ss = rt.subscheme(addr.subscheme);
        const lph::ZoneSystem& zsys = ss.zones();
        const HyperRect extent = zsys.extent(addr.zone);
        // Stored subscriptions project inside the zone's extent (LPH put
        // them at their covering zone).
        for (const auto& s : zone.subscriptions()) {
          if (!extent.covers(s.projected)) return false;
        }
        // Summary is the exact hull of contents.
        if (!(zone.exact_summary() == zone.summary())) return false;
        // A live zone storing only its extent is saturated, not a ZoneState.
        if (live && zone.subscription_count() == 0 &&
            zone.buckets().empty() && zone.has_parent_piece() &&
            saturates(addr, zone.parent_piece()->first)) {
          return false;
        }
        // Migrated buckets with exact rects: the hull of the recorded
        // per-sub rects must equal the bucket summary (an over-covering
        // summary forwards events into the hull's dead corners; an
        // under-covering one loses deliveries), and the rects must be
        // exactly the deduplicated projected rects of the subscriptions the
        // live acceptor actually holds under the pointer's token.
        for (const auto& b : zone.buckets()) {
          if (b.sub_rects.empty()) continue;  // bare bucket (hull-only mode)
          HyperRect hull;
          for (const HyperRect& r : b.sub_rects) hull = hull.hull(r);
          if (!(hull == b.summary)) return false;
          if (b.pointer.kind != SubIdKind::kMigrated) continue;
          const HyperSubNode* acceptor = nullptr;
          for (const auto& n2 : nodes_) {
            if (n2->node_id() == b.pointer.target) {
              acceptor = n2.get();
              break;
            }
          }
          if (acceptor == nullptr || !dht_.network().alive(acceptor->host())) {
            continue;  // acceptor gone: the pointer is dead weight, not wrong
          }
          const MigratedRepo* repo = acceptor->find_migrated(b.pointer.iid);
          if (repo == nullptr) return false;
          std::vector<HyperRect> expect;
          for (std::uint32_t r = 0; r < std::uint32_t(repo->subs.size()); ++r) {
            const HyperRect pr = repo->subs.projected_rect(r);
            bool dup = false;
            for (const HyperRect& e : expect) {
              if (e == pr) {
                dup = true;
                break;
              }
            }
            if (!dup) expect.push_back(pr);
          }
          if (expect.size() != b.sub_rects.size()) return false;
          for (const HyperRect& e : expect) {
            bool found = false;
            for (const HyperRect& r : b.sub_rects) {
              if (r == e) {
                found = true;
                break;
              }
            }
            if (!found) return false;
          }
        }
        // Cached child pieces are exactly summary ∩ child extent.
        if (store == &nd->primary() && !zsys.is_leaf(addr.zone)) {
          for (int c = 0; c < zsys.base(); ++c) {
            HyperRect expect;
            if (!zone.summary().empty()) {
              const HyperRect ce = zsys.extent(zsys.child(addr.zone, c));
              if (zone.summary().overlaps(ce)) {
                expect = zone.summary().intersect(ce);
              }
            }
            if (!(zone.child_piece(c) == expect) &&
                !(zone.child_piece(c).empty() && expect.empty())) {
              return false;
            }
          }
        }
      }
      // Saturated pass: every saturated zone is a non-root zone of the tree
      // whose key the store derives, and no ZoneState of the same store
      // shadows it.
      bool saturated_ok = true;
      store->for_each_saturated([&](const ZoneAddr& addr, Id key) {
        const Subscheme& ss = schemes_[addr.scheme]->subscheme(addr.subscheme);
        const lph::ZoneSystem& zsys = ss.zones();
        const int level = addr.zone.level;
        if (level < 1 || level > zsys.max_level() ||
            (addr.zone.code >> (level * zsys.base_bits())) != 0 ||
            lph::zone_key(zsys, addr.zone, ss.rotation()) != key ||
            store->zones().contains(addr)) {
          saturated_ok = false;
        }
      });
      if (!saturated_ok) return false;
    }
  }
  // Cross-node pass: the piece a parent zone caches (or, saturated,
  // derives) for each child must equal the piece actually installed at the
  // child zone's live owner — otherwise events filtered by the stale child
  // piece die (or detour) between the two nodes. Only authoritative state
  // is compared: the parent's host must still own the parent key, and
  // exactly one live node may claim the child key (ownership is ambiguous
  // mid-repair).
  const auto sole_owner = [&](Id key) {
    net::HostIndex owner = overlay::Peer::kInvalidHost;
    for (net::HostIndex o = 0; o < nodes_.size(); ++o) {
      if (!dht_.network().alive(o) || !dht_.owns(o, key)) continue;
      if (owner != overlay::Peer::kInvalidHost) {
        return overlay::Peer::kInvalidHost;
      }
      owner = o;
    }
    return owner;
  };
  // `child_piece(digit)` is what the parent at `addr` expects child
  // `digit` to hold.
  const auto children_agree = [&](const ZoneAddr& addr, Id my_key,
                                  const auto& child_piece) {
    const Subscheme& ss = schemes_[addr.scheme]->subscheme(addr.subscheme);
    const lph::ZoneSystem& zsys = ss.zones();
    if (zsys.is_leaf(addr.zone)) return true;
    for (int c = 0; c < zsys.base(); ++c) {
      const ZoneAddr child{addr.scheme, addr.subscheme,
                           zsys.child(addr.zone, c)};
      const Id child_key = lph::zone_key(zsys, child.zone, ss.rotation());
      const net::HostIndex owner = sole_owner(child_key);
      if (owner == overlay::Peer::kInvalidHost) continue;
      HyperRect installed;
      const HyperSubNode& cnd = *nodes_[owner];
      if (const auto it = cnd.zones().find(child); it != cnd.zones().end()) {
        const auto& pp = it->second.parent_piece();
        if (pp && pp->second == my_key) installed = pp->first;
      } else if (cnd.primary().saturated(child)) {
        installed = zsys.extent(child.zone);
      }
      const HyperRect expect = child_piece(c);
      if (!(installed == expect) && !(installed.empty() && expect.empty())) {
        return false;
      }
    }
    return true;
  };
  for (net::HostIndex h = 0; h < nodes_.size(); ++h) {
    if (!dht_.network().alive(h)) continue;
    for (const auto& [addr, zone] : nodes_[h]->zones()) {
      const Id my_key = zone_key_of(addr);
      if (!dht_.owns(h, my_key)) continue;
      const auto cached = [&zone](int c) { return zone.child_piece(c); };
      if (!children_agree(addr, my_key, cached)) return false;
    }
    bool saturated_ok = true;
    nodes_[h]->primary().for_each_saturated([&](const ZoneAddr& addr, Id key) {
      if (!saturated_ok || !dht_.owns(h, key)) return;
      const lph::ZoneSystem& zsys =
          schemes_[addr.scheme]->subscheme(addr.subscheme).zones();
      const HyperRect ext = zsys.extent(addr.zone);
      const auto derived = [&](int c) {
        return clip(ext, zsys.extent(zsys.child(addr.zone, c)));
      };
      if (!children_agree(addr, key, derived)) saturated_ok = false;
    });
    if (!saturated_ok) return false;
  }
  // Lifecycle pass: outside an active handover, no live node may be left
  // holding populated primary zone state for a key another live node
  // unambiguously owns — a join-driven ownership flip that skipped the
  // transfer/retire protocol strands exactly that (and silently splits
  // deliveries between the copies). Hosts participating in a transfer (as
  // source, target, or warming joiner) are mid-handover by construction.
  std::vector<bool> mid_handover(nodes_.size(), false);
  for (net::HostIndex h = 0; h < nodes_.size(); ++h) {
    const TransferOut& t = transfers_out_[h];
    if (t.active) {
      mid_handover[h] = true;
      if (t.target < nodes_.size()) mid_handover[t.target] = true;
    }
    const WarmState& ws = warm_[h];
    if (ws.warming) {
      mid_handover[h] = true;
      if (ws.source < nodes_.size()) mid_handover[ws.source] = true;
    }
  }
  for (net::HostIndex h = 0; h < nodes_.size(); ++h) {
    if (!dht_.network().alive(h) || mid_handover[h]) continue;
    for (const auto& [addr, zone] : nodes_[h]->zones()) {
      if (zone.subscription_count() == 0 && zone.buckets().empty()) continue;
      const Id key = zone_key_of(addr);
      if (dht_.owns(h, key)) continue;
      const net::HostIndex owner = sole_owner(key);
      if (owner == overlay::Peer::kInvalidHost || mid_handover[owner]) continue;
      return false;
    }
  }
  return true;
}

std::uint64_t HyperSubSystem::zone_content_digest() const {
  // Commutative fold (sum of full-avalanche row hashes), so the digest is
  // independent of map iteration order, host assignment within a node, and
  // whether a zone is materialized or saturated.
  std::uint64_t acc = 0;
  const auto fold = [&acc](const ZoneAddr& addr, std::uint64_t fp) {
    std::uint64_t h = splitmix64(addr.zone.code);
    h = splitmix64(h ^ ((std::uint64_t(addr.scheme) << 32) |
                        std::uint64_t(addr.subscheme)));
    h = splitmix64(h ^ std::uint64_t(std::uint32_t(addr.zone.level)));
    h = splitmix64(h ^ fp);
    acc += h;
  };
  const auto husk = [](const ZoneState& zs) {
    return zs.subscription_count() == 0 && zs.buckets().empty() &&
           (!zs.has_parent_piece() || zs.parent_piece()->first.empty());
  };
  for (net::HostIndex host = 0; host < net::HostIndex(nodes_.size()); ++host) {
    // Departed nodes keep dead copies of their zones until the process
    // goes (commit_leave_handover serves events through the splice); only
    // the live placement is system content.
    if (!dht_.network().alive(host)) continue;
    const auto& nd = nodes_[host];
    for (const auto& [addr, zone] : nd->zones()) {
      if (husk(zone)) continue;  // stores nothing
      fold(addr, zone.fingerprint());
    }
    // A saturated zone folds in as the ZoneState it stands for. The rows
    // are summed hashes, so a run has no closed form: each of its zones
    // is fingerprinted, directly rather than through a ZoneState.
    nd->primary().for_each_saturated([&](const ZoneAddr& addr, Id) {
      fold(addr,
           saturated_fingerprint(
               schemes_[addr.scheme]->subscheme(addr.subscheme), addr.zone));
    });
  }
  return acc;
}

std::vector<std::size_t> HyperSubSystem::node_loads() const {
  std::vector<std::size_t> loads;
  loads.reserve(nodes_.size());
  for (const auto& n : nodes_) loads.push_back(n->load());
  return loads;
}

std::vector<std::size_t> HyperSubSystem::node_stored_entries() const {
  std::vector<std::size_t> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(n->stored_entries());
  return out;
}

}  // namespace hypersub::core
