#include "core/hypersub_system.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <compare>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "core/hypersub_internal.hpp"

namespace hypersub::core {

// ---------------------------------------------------------------------------
// Subscription installation (Alg. 2 + Alg. 3)
// ---------------------------------------------------------------------------

SubscriptionHandle HyperSubSystem::subscribe(net::HostIndex subscriber,
                                             std::uint32_t scheme,
                                             pubsub::Subscription sub) {
  assert(scheme < schemes_.size());
  HyperSubNode& me = *nodes_[subscriber];
  const std::uint32_t iid = me.next_iid();
  me.record_local(iid, sub);
  ++total_subs_;

  const SchemeRuntime& rt = *schemes_[scheme];
  const std::uint32_t ssi = std::uint32_t(rt.choose_subscheme(sub));
  const Subscheme& ss = rt.subscheme(ssi);
  const HyperRect projected = ss.project(sub.range());
  const auto lph = lph::hash_subscription(ss.zones(), projected,
                                          ss.rotation());
  ZoneOp op{.kind = ZoneOp::Kind::kAdd,
            .addr = ZoneAddr{scheme, ssi, lph.zone},
            .key = lph.key,
            .stored = StoredSub{SubId{me.node_id(), iid, SubIdKind::kSubscriber},
                                std::move(sub), projected}};

  // Tracing: one trace per sampled installation — an install root span at
  // the subscriber, route-hop spans recorded by the substrate, and a
  // register span at the surrogate (chained under the last hop via the
  // ambient context the substrate parks around the owner callback).
  trace::SpanId install_span = trace::kNoSpan;
  if (auto* tr = trace::maybe(tracer_)) {
    const trace::TraceId tid = tr->start_trace(cfg_.trace_sample_rate);
    if (tid != trace::kNoTrace) {
      install_span =
          tr->begin(tid, trace::kNoSpan, trace::SpanKind::kInstall,
                    subscriber, simulator().now(), scheme, iid);
      tr->set_ambient(trace::TraceCtx{tid, install_span});
    }
  }
  const std::size_t dims = ss.attributes().size();
  dht_.route(subscriber, lph.key, install_bytes(dims),
               [this, install_span, op = std::move(op)](
                   const overlay::Overlay::RouteResult& r) mutable {
                 if (auto* tr = trace::maybe(tracer_)) {
                   const trace::TraceCtx at = tr->take_ambient();
                   if (at.active()) {
                     const double now = simulator().now();
                     tr->point(at.trace, at.parent,
                               trace::SpanKind::kRegister, r.owner.host, now,
                               std::uint64_t(r.hops));
                     tr->end(install_span, now);
                   }
                 }
                 write_zone(r.owner.host, std::move(op));
               });
  // A substrate that ignores set_tracer never consumes the parked context;
  // clear it so the next route cannot adopt it. (If the install message is
  // dropped en route, the install span stays open — a recorded lost edge.)
  if (auto* tr = trace::maybe(tracer_)) tr->take_ambient();
  return SubscriptionHandle{scheme, iid, subscriber};
}

void HyperSubSystem::unsubscribe(const SubscriptionHandle& handle) {
  if (!handle.valid()) return;
  const HyperSubNode& me = *nodes_[handle.subscriber];
  auto sub = me.local_sub(handle.iid);
  if (!sub) return;  // unknown or already removed
  unsubscribe_impl(handle.subscriber, handle.scheme, handle.iid,
                   std::move(*sub));
}

void HyperSubSystem::unsubscribe_impl(net::HostIndex subscriber,
                                      std::uint32_t scheme, std::uint32_t iid,
                                      pubsub::Subscription sub) {
  assert(scheme < schemes_.size());
  HyperSubNode& me = *nodes_[subscriber];
  if (!me.erase_local(iid)) return;
  assert(total_subs_ > 0);
  --total_subs_;

  const SchemeRuntime& rt = *schemes_[scheme];
  const std::uint32_t ssi = std::uint32_t(rt.choose_subscheme(sub));
  const Subscheme& ss = rt.subscheme(ssi);
  const HyperRect projected = ss.project(sub.range());
  const auto lph = lph::hash_subscription(ss.zones(), projected,
                                          ss.rotation());
  dht_.route(subscriber, lph.key, install_bytes(ss.attributes().size()),
               [this, op = ZoneOp{.kind = ZoneOp::Kind::kRemove,
                                  .addr = ZoneAddr{scheme, ssi, lph.zone},
                                  .key = lph.key,
                                  .stored = StoredSub{
                                      SubId{me.node_id(), iid,
                                            SubIdKind::kSubscriber},
                                      std::move(sub), HyperRect{}}}](
                   const overlay::Overlay::RouteResult& r) mutable {
                 write_zone(r.owner.host, std::move(op));
               });
}

namespace {

/// Owner of `key` in an oracle owner table with successor geometry: the
/// first id >= key, wrapping to the front (same contract as
/// Overlay::oracle_owner_table / chord::successor_index).
std::size_t bulk_owner_index(const std::vector<Id>& sorted_ids, Id key) {
  const auto it = std::lower_bound(sorted_ids.begin(), sorted_ids.end(), key);
  return it == sorted_ids.end() ? 0 : std::size_t(it - sorted_ids.begin());
}

/// Per parent level of `zsys`, whether its splits are exact: every
/// child's interval on the split dimension lies inside its parent's, so
/// below a saturated zone of that level each child's piece is its extent.
/// Each dimension's intervals are walked level by level; a walk that would
/// pass kExactWalk intervals counts its deeper levels as rounding.
std::vector<bool> exact_splits(const lph::ZoneSystem& zsys) {
  constexpr std::size_t kExactWalk = std::size_t{1} << 16;
  const int levels = zsys.max_level();
  const int dims = int(zsys.dimensions());
  const std::size_t base = std::size_t(zsys.base());
  std::vector<bool> exact(std::size_t(levels), true);
  for (int j = 0; j < dims; ++j) {
    // The intervals of dimension j at the levels that split it.
    std::vector<Interval> ivs{zsys.space().dim(std::size_t(j))};
    for (int level = j; level < levels; level += dims) {
      if (ivs.size() * base > kExactWalk) {
        for (int l = level; l < levels; l += dims) {
          exact[std::size_t(l)] = false;
        }
        break;
      }
      std::vector<Interval> next;
      next.reserve(ivs.size() * base);
      for (const Interval& iv : ivs) {
        for (int digit = 0; digit < int(base); ++digit) {
          const Interval child = zsys.narrow(iv, digit);
          if (!iv.covers(child)) exact[std::size_t(level)] = false;
          next.push_back(child);
        }
      }
      ivs = std::move(next);
    }
  }
  return exact;
}

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Run `body(lo, hi)` over a partition of [0, hosts) into up to `threads`
/// contiguous ranges. Each worker owns a disjoint host range, so per-host
/// state needs no synchronization and the combined result is independent
/// of the thread count.
template <typename F>
void for_host_ranges(unsigned threads, std::size_t hosts, F&& body) {
  const std::size_t workers =
      std::min<std::size_t>(std::max(1u, threads), hosts);
  if (workers <= 1) {
    body(std::size_t{0}, hosts);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&body, lo = hosts * w / workers,
                       hi = hosts * (w + 1) / workers] { body(lo, hi); });
  }
  for (auto& th : pool) th.join();
}

}  // namespace

std::vector<SubscriptionHandle> HyperSubSystem::bulk_subscribe(
    std::uint32_t scheme, std::vector<BulkSub> subs, unsigned threads) {
  assert(scheme < schemes_.size());
  std::vector<SubscriptionHandle> handles(subs.size());
  const auto ring = dht_.oracle_owner_table();
  if (ring.empty()) {
    // No global knowledge — routed installs (caller drains the simulator).
    for (std::size_t i = 0; i < subs.size(); ++i) {
      handles[i] =
          subscribe(subs[i].subscriber, scheme, std::move(subs[i].sub));
    }
    return handles;
  }
  const auto t_plan = Clock::now();
  std::vector<Id> ring_ids;
  ring_ids.reserve(ring.size());
  for (const auto& peer : ring) ring_ids.push_back(peer.id);

  const SchemeRuntime& rt = *schemes_[scheme];
  struct Planned {
    std::uint32_t iid = 0;
    std::uint32_t ssi = 0;
    net::HostIndex owner = 0;
    Id key = 0;
    lph::Zone zone;
    HyperRect projected;
  };
  std::vector<Planned> plan(subs.size());

  // Phase A — subscriber-side bookkeeping + zone planning, sharded by
  // subscriber host: iid allocation and the local store are per-host
  // state, and everything else read here (scheme runtime, LPH) is
  // immutable. Each host's subscriptions are planned in batch order, so
  // iids match what a sequential subscribe() loop would assign.
  for_host_ranges(threads, nodes_.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = 0; i < subs.size(); ++i) {
      const net::HostIndex sh = subs[i].subscriber;
      if (sh < lo || sh >= hi) continue;
      HyperSubNode& me = *nodes_[sh];
      Planned& p = plan[i];
      p.iid = me.next_iid();
      me.record_local(p.iid, subs[i].sub);
      p.ssi = std::uint32_t(rt.choose_subscheme(subs[i].sub));
      const Subscheme& ss = rt.subscheme(p.ssi);
      p.projected = ss.project(subs[i].sub.range());
      const auto lph =
          lph::hash_subscription(ss.zones(), p.projected, ss.rotation());
      p.zone = lph.zone;
      p.key = lph.key;
      p.owner = ring[bulk_owner_index(ring_ids, p.key)].host;
    }
  });
  total_subs_ += subs.size();
  for (std::size_t i = 0; i < subs.size(); ++i) {
    handles[i] = SubscriptionHandle{scheme, plan[i].iid, subs[i].subscriber};
  }

  const auto t_installs = Clock::now();
  bulk_stats_.plan_s += seconds_between(t_plan, t_installs);

  // Phase B — replica copies first (a routed install copies to the heirs
  // too, and its copies arrive after the primary insert), sharded by
  // replica host; then the primary installs, sharded by owner host. Within
  // one host everything lands in batch order. As in a routed install, a
  // zone an earlier batch saturated holds its extent as a piece, and keeps
  // it. Zones only stage the subscriptions; each shard then builds the
  // SubIndex of every zone it filled once, over the final population,
  // instead of once per doubling.
  std::atomic<std::uint64_t> indexes_built{0};
  const auto build_indexes = [&indexes_built](std::vector<ZoneState*>& filled) {
    std::sort(filled.begin(), filled.end());
    filled.erase(std::unique(filled.begin(), filled.end()), filled.end());
    std::uint64_t built = 0;
    for (ZoneState* zs : filled) built += zs->build_index_if_due() ? 1 : 0;
    indexes_built += built;
  };
  if (cfg_.replicas > 0) {
    for_host_ranges(
        threads, nodes_.size(), [&](std::size_t lo, std::size_t hi) {
          std::vector<ZoneState*> filled;
          for (std::size_t i = 0; i < subs.size(); ++i) {
            const Planned& p = plan[i];
            for (const auto& peer :
                 dht_.replica_set(p.owner, cfg_.replicas)) {
              if (peer.host < lo || peer.host >= hi) continue;
              ZoneState& zs = materialize_saturated(
                  nodes_[peer.host]->replicas(), {scheme, p.ssi, p.zone},
                  p.key);
              zs.stage_subscription(StoredSub{
                  SubId{nodes_[subs[i].subscriber]->node_id(), p.iid,
                        SubIdKind::kSubscriber},
                  subs[i].sub, p.projected});
              filled.push_back(&zs);
            }
          }
          build_indexes(filled);
        });
  }
  for_host_ranges(threads, nodes_.size(), [&](std::size_t lo, std::size_t hi) {
    std::vector<ZoneState*> filled;
    for (std::size_t i = 0; i < subs.size(); ++i) {
      Planned& p = plan[i];
      if (p.owner < lo || p.owner >= hi) continue;
      ZoneState& zs = materialize_saturated(
          nodes_[p.owner]->primary(), {scheme, p.ssi, p.zone}, p.key);
      zs.stage_subscription(
          StoredSub{SubId{nodes_[subs[i].subscriber]->node_id(), p.iid,
                          SubIdKind::kSubscriber},
                    std::move(subs[i].sub), std::move(p.projected)});
      filled.push_back(&zs);
    }
    build_indexes(filled);
  });
  bulk_stats_.indexes_built += indexes_built;
  const auto t_cascade = Clock::now();
  bulk_stats_.install_s += seconds_between(t_installs, t_cascade);

  // Phase C — one sequential top-down piece fixpoint. A summary piece only
  // flows parent -> child, and a zone's outgoing pieces depend on its
  // parent piece, so processing zones by ascending level reaches the same
  // fixpoint the drained install cascade converges to:
  // piece(child) = final summary(parent) ∩ extent(child).
  //
  // Zones with a ZoneState push their pieces one by one. A saturated zone's
  // summary is its extent, and so is each child's piece, unless the split
  // below it rounds past the parent's interval (non-dyadic domain bounds):
  // below a saturated zone every zone saturates, except the ones with a
  // ZoneState, which take their extent as a piece (and whose own children
  // saturate again). So saturated parents travel down the levels as spans
  // of codes, and their children saturate a run at a time: a level-L key
  // is its code padded with one-bits plus the rotation, so keys rise with
  // codes and a span's children fall into one run per host arc they cross.
  // Only the children with a ZoneState are visited one by one, and only a
  // level whose splits round is walked parent by parent; a full tree costs
  // O(hosts × levels), not O(zones).
  //
  // Each child piece also reaches the replica stores of the child's host,
  // as a routed piece's copies would: a full-extent piece on a zone with no
  // ZoneState there saturates it; otherwise the zone takes the piece and
  // folds.
  const auto replicate = [&](net::HostIndex child_host,
                             const ZoneAddr& child_addr, Id child_key,
                             bool full, const HyperRect& piece,
                             Id parent_key) {
    if (cfg_.replicas == 0) return;
    for (const auto& peer : dht_.replica_set(child_host, cfg_.replicas)) {
      ZoneStore& rs = nodes_[peer.host]->replicas();
      if (full && !rs.zones().contains(child_addr)) {
        rs.set_saturated(child_addr);
        continue;
      }
      apply_zone_op(peer.host, rs,
                    {.kind = ZoneOp::Kind::kPiece,
                     .addr = child_addr,
                     .key = child_key,
                     .piece = piece,
                     .parent_key = parent_key},
                    /*cascade=*/false);
    }
  };
  const auto owner_of = [&](Id key) {
    return ring[bulk_owner_index(ring_ids, key)].host;
  };
  int max_level = 0;
  for (std::uint32_t ssi = 0; ssi < rt.subscheme_count(); ++ssi) {
    max_level = std::max(max_level, rt.subscheme(ssi).zones().max_level());
  }
  // Per level: the zones with a ZoneState to push pieces from (installed,
  // or whose piece grew), and the saturated zones whose children are due,
  // as code spans [lo, hi).
  struct PendingZone {
    Id code = 0;
    Id key = 0;  // rotated zone key (a pure function of ssi + zone)
    std::uint32_t ssi = 0;
  };
  struct Span {
    std::uint32_t ssi = 0;
    Id lo = 0;
    Id hi = 0;
  };
  std::vector<std::vector<PendingZone>> pending(std::size_t(max_level) + 1);
  std::vector<std::vector<Span>> spans(std::size_t(max_level) + 1);
  for (const Planned& p : plan) {
    if (rt.subscheme(p.ssi).zones().is_leaf(p.zone)) continue;
    pending[std::size_t(p.zone.level)].push_back({p.zone.code, p.key, p.ssi});
  }
  // The planning and input buffers are dead weight from here on.
  plan = {};
  subs = {};

  // The ZoneStates of this scheme, per store kind, by (host, subscheme,
  // level, code). Taken once: the cascade creates and folds ZoneStates
  // only among the children of zones with a ZoneState and the children a
  // rounded split clips, never among the children a span saturates.
  struct Held {
    net::HostIndex host = 0;
    std::uint32_t ssi = 0;
    int level = 0;
    Id code = 0;
    auto operator<=>(const Held&) const = default;
  };
  const auto held_in = [&](bool replicas) {
    std::vector<Held> held;
    for (net::HostIndex h = 0; h < net::HostIndex(nodes_.size()); ++h) {
      const HyperSubNode& nd = *nodes_[h];
      for (const auto& [addr, zs] :
           (replicas ? nd.replicas() : nd.primary()).zones()) {
        if (addr.scheme != scheme) continue;
        held.push_back({h, addr.subscheme, addr.zone.level, addr.zone.code});
      }
    }
    std::sort(held.begin(), held.end());
    return held;
  };
  const std::vector<Held> held_primary = held_in(false);
  const std::vector<Held> held_replica =
      cfg_.replicas > 0 ? held_in(true) : std::vector<Held>{};
  // The held zones of `host` at (ssi, level) with codes in [lo, hi).
  const auto held_between = [](const std::vector<Held>& held,
                               net::HostIndex host, std::uint32_t ssi,
                               int level, Id lo, Id hi) {
    const auto first =
        std::lower_bound(held.begin(), held.end(), Held{host, ssi, level, lo});
    return std::span<const Held>(
        first,
        std::lower_bound(first, held.end(), Held{host, ssi, level, hi}));
  };
  // Saturate `store`'s level-`level` zones [lo, hi) of ssi but the `held`
  // ones among them, which go to take(code) in code order.
  const auto saturate_around = [&](ZoneStore& store,
                                   std::span<const Held> held,
                                   std::uint32_t ssi, int level, Id lo, Id hi,
                                   auto&& take, auto&& on_clear) {
    Id from = lo;
    for (const Held& z : held) {
      store.set_saturated_run(scheme, ssi, level, from, z.code, on_clear);
      take(z.code);
      from = z.code + 1;
    }
    store.set_saturated_run(scheme, ssi, level, from, hi, on_clear);
  };

  // Saturate the level-`level` children [lo, hi) of saturated ssi zones,
  // each inside its parent's extent: one run per host arc, in the primary
  // and in the replicas of the host's heirs. A child with a ZoneState takes
  // its extent as a piece instead; newly saturated children are the next
  // level's spans.
  const auto saturate_children = [&](std::uint32_t ssi, int level, Id lo,
                                     Id hi) {
    const Subscheme& ss = rt.subscheme(ssi);
    const lph::ZoneSystem& zsys = ss.zones();
    const bool leaf = level == zsys.max_level();
    const int pad = kIdBits - level * zsys.base_bits();
    const auto key_of = [&](const lph::Zone& z) {
      return lph::zone_key(zsys, z, ss.rotation());
    };
    const auto on_clear = [&](Id a, Id b) {
      if (!leaf) spans[std::size_t(level)].push_back({ssi, a, b});
    };
    for (Id code = lo; code < hi;) {
      // The host owning `code`'s key owns the codes up to the end of its
      // arc, one key step (1 << pad) apart.
      const Id key = key_of({code, level});
      const std::size_t t = bulk_owner_index(ring_ids, key);
      const Id end =
          code + std::min<Id>(hi - code, ((ring_ids[t] - key) >> pad) + 1);
      const net::HostIndex host = ring[t].host;
      ZoneStore& cs = nodes_[host]->primary();
      ++bulk_stats_.children_fast;
      saturate_around(
          cs, held_between(held_primary, host, ssi, level, code, end), ssi,
          level, code, end,
          [&](Id c) {
            const lph::Zone child{c, level};
            const ZoneAddr child_addr{scheme, ssi, child};
            const Id child_key = key_of(child);
            const lph::Zone parent = zsys.parent(child);
            const bool grew =
                cs.zone_state(child_addr, child_key)
                    .set_parent_piece(
                        clip(zsys.extent(parent), zsys.extent(child)),
                        key_of(parent));
            if (leaf) {
              fold_saturated(cs, child_addr, child_key);
            } else if (grew) {
              pending[std::size_t(level)].push_back({c, child_key, ssi});
            }
          },
          on_clear);
      if (cfg_.replicas > 0) {
        for (const auto& peer : dht_.replica_set(host, cfg_.replicas)) {
          ZoneStore& rs = nodes_[peer.host]->replicas();
          saturate_around(
              rs, held_between(held_replica, peer.host, ssi, level, code, end),
              ssi, level, code, end,
              [&](Id c) {
                const lph::Zone child{c, level};
                apply_zone_op(peer.host, rs,
                              {.kind = ZoneOp::Kind::kPiece,
                               .addr = ZoneAddr{scheme, ssi, child},
                               .key = key_of(child),
                               .piece = zsys.extent(child),
                               .parent_key = key_of(zsys.parent(child))},
                              /*cascade=*/false);
              },
              [](Id, Id) {});
        }
      }
      code = end;
    }
  };

  // Hand `piece` to the child at `child_addr` (whose extent is `ext`) one
  // by one, as a routed piece from the parent at `parent_key` would land.
  const auto push_piece = [&](const ZoneAddr& child_addr, Id child_key,
                              HyperRect piece, const HyperRect& ext,
                              Id parent_key) {
    const lph::Zone& child = child_addr.zone;
    const std::size_t level = std::size_t(child.level);
    const bool leaf = rt.subscheme(child_addr.subscheme).zones().is_leaf(child);
    const net::HostIndex child_host = owner_of(child_key);
    const bool full = piece == ext;
    replicate(child_host, child_addr, child_key, full, piece, parent_key);
    ZoneStore& cs = nodes_[child_host]->primary();
    if (full && !cs.zones().contains(child_addr)) {
      // A full-extent piece on a zone with no state saturates it.
      if (cs.set_saturated(child_addr) && !leaf) {
        spans[level].push_back(
            {child_addr.subscheme, child.code, child.code + 1});
      }
      return;
    }
    if (!take_piece(cs, child_addr, child_key, piece)) return;
    const bool grew = cs.zone_state(child_addr, child_key)
                          .set_parent_piece(std::move(piece), parent_key);
    if (leaf) {
      fold_saturated(cs, child_addr, child_key);
    } else if (grew) {
      pending[level].push_back({child.code, child_key, child_addr.subscheme});
    }
  };

  std::vector<std::vector<bool>> exact(rt.subscheme_count());
  const auto before = [](const auto& a, const auto& b) {
    return a.ssi != b.ssi ? a.ssi < b.ssi : a.code < b.code;
  };
  for (int level = 0; level < max_level; ++level) {
    // Zones with a ZoneState, in (subscheme, code) order, each once.
    std::vector<PendingZone>& zones = pending[std::size_t(level)];
    std::sort(zones.begin(), zones.end(), before);
    zones.erase(std::unique(zones.begin(), zones.end(),
                            [](const PendingZone& a, const PendingZone& b) {
                              return a.ssi == b.ssi && a.code == b.code;
                            }),
                zones.end());
    for (const PendingZone& pz : zones) {
      const Subscheme& ss = rt.subscheme(pz.ssi);
      const lph::ZoneSystem& zsys = ss.zones();
      const lph::Zone zone{pz.code, level};
      const ZoneAddr addr{scheme, pz.ssi, zone};
      ZoneStore& store = nodes_[owner_of(pz.key)]->primary();
      const auto zit = store.zones().find(addr);
      if (zit == store.zones().end()) {
        // Saturated: its children go with the spans.
        if (store.saturated(addr)) {
          spans[std::size_t(level)].push_back({pz.ssi, pz.code, pz.code + 1});
        }
        continue;
      }
      ZoneState& zs = zit->second;
      ++bulk_stats_.zones_cascaded;
      // Each child's extent is the parent's with the split interval
      // narrowed.
      const std::size_t split = zsys.split_dimension(level);
      HyperRect ext = zsys.extent(zone);
      const Interval parent_iv = ext.dim(split);
      for (int digit = 0; digit < zsys.base(); ++digit) {
        ext.dim(split) = zsys.narrow(parent_iv, digit);
        HyperRect piece = clip(zs.summary(), ext);
        if (piece == zs.child_piece(digit)) continue;
        zs.set_child_piece(digit, piece);
        const lph::Zone child = zsys.child(zone, digit);
        push_piece({scheme, pz.ssi, child},
                   lph::zone_key(zsys, child, ss.rotation()), std::move(piece),
                   ext, pz.key);
      }
      // Its outgoing pieces are settled: a zone left holding only its
      // extent folds now.
      fold_saturated(store, addr, pz.key);
    }

    // Saturated zones, as merged spans of codes.
    std::vector<Span>& due = spans[std::size_t(level)];
    std::sort(due.begin(), due.end(), [](const Span& a, const Span& b) {
      return a.ssi != b.ssi ? a.ssi < b.ssi : a.lo < b.lo;
    });
    std::size_t merged = 0;
    for (const Span& sp : due) {
      if (merged > 0 && due[merged - 1].ssi == sp.ssi &&
          due[merged - 1].hi >= sp.lo) {
        due[merged - 1].hi = std::max(due[merged - 1].hi, sp.hi);
      } else {
        due[merged++] = sp;
      }
    }
    due.resize(merged);
    for (const Span& sp : due) {
      const Subscheme& ss = rt.subscheme(sp.ssi);
      const lph::ZoneSystem& zsys = ss.zones();
      const int bits = zsys.base_bits();
      std::vector<bool>& exact_at = exact[sp.ssi];
      if (exact_at.empty()) exact_at = exact_splits(zsys);
      if (exact_at[std::size_t(level)]) {
        saturate_children(sp.ssi, level + 1, sp.lo << bits, sp.hi << bits);
        continue;
      }
      // The split rounds somewhere on this level: parent by parent.
      // Children inside their parent's interval still saturate as runs;
      // the others take clip().
      const std::size_t split = zsys.split_dimension(level);
      Id run_lo = 0, run_hi = 0;
      const auto flush = [&] {
        if (run_lo < run_hi) {
          saturate_children(sp.ssi, level + 1, run_lo, run_hi);
        }
        run_lo = run_hi = 0;
      };
      for (Id code = sp.lo; code < sp.hi; ++code) {
        ++bulk_stats_.zones_cascaded;
        const lph::Zone zone{code, level};
        const Interval parent_iv = zsys.extent_interval(zone, split);
        for (int digit = 0; digit < zsys.base(); ++digit) {
          const lph::Zone child = zsys.child(zone, digit);
          if (parent_iv.covers(zsys.narrow(parent_iv, digit))) {
            if (run_lo == run_hi) run_lo = child.code;
            run_hi = child.code + 1;
            continue;
          }
          flush();
          ++bulk_stats_.children_clipped;
          const HyperRect ext = zsys.extent(child);
          HyperRect piece = clip(zsys.extent(zone), ext);
          if (piece.empty()) continue;
          push_piece({scheme, sp.ssi, child},
                     lph::zone_key(zsys, child, ss.rotation()),
                     std::move(piece), ext,
                     lph::zone_key(zsys, zone, ss.rotation()));
        }
      }
      flush();
    }
    // Processed — free before the next level.
    pending[std::size_t(level)] = {};
    spans[std::size_t(level)] = {};
  }
  bulk_stats_.cascade_s += seconds_between(t_cascade, Clock::now());
  return handles;
}

void HyperSubSystem::write_zone(net::HostIndex owner, ZoneOp op) {
  if (WarmState& ws = warm_[owner]; ws.warming) {
    // The write reached a warming joiner: the zone's prior contents are
    // still in flight, so defer the full write (with its replica copies and
    // piece propagation) until commit.
    ws.ops.emplace_back(std::move(op));
    return;
  }
  if (TransferOut& t = transfers_out_[owner];
      t.active && transfer_moves(t, op.key)) {
    if (t.committed) {
      // Leave bridge: this node already shipped the range; hand the write
      // to the new owner through the full path.
      network().send(owner, t.target, op_bytes(op),
                     [this, to = t.target, op = std::move(op)]() mutable {
                       write_zone(to, std::move(op));
                     });
      return;
    }
    // Write-behind: apply locally below AND queue a zone-local replay.
    t.queue.push_back(op);
  }
  apply_zone_op(owner, nodes_[owner]->primary(), std::move(op),
                /*cascade=*/true);
}

void HyperSubSystem::apply_zone_op(net::HostIndex host, ZoneStore& store,
                                   ZoneOp op, bool cascade) {
  // The replica copy is taken before the mutation consumes the payload.
  std::optional<ZoneOp> copy;
  if (cascade && cfg_.replicas > 0) copy = op;
  bool changed = false;
  switch (op.kind) {
    case ZoneOp::Kind::kAdd:
      // A saturated zone holds nothing but its extent: materialize it first.
      changed = materialize_saturated(store, op.addr, op.key)
                    .add_subscription(std::move(op.stored));
      break;
    case ZoneOp::Kind::kRemove: {
      // A removal miss must not materialize a husk, and has nothing to
      // copy; a saturated zone holds no subscriptions either.
      const auto it = store.zones().find(op.addr);
      if (it == store.zones().end()) return;
      const ZoneState::Removal r = it->second.remove_subscription(
          op.stored.owner, op.stored.sub.range());
      if (!r.removed) return;
      changed = r.summary_changed;
      break;
    }
    case ZoneOp::Kind::kPiece:
      // A piece with nothing to do here is still copied: a replica may
      // lack the zone.
      if (take_piece(store, op.addr, op.key, op.piece)) {
        changed = store.zone_state(op.addr, op.key)
                      .set_parent_piece(std::move(op.piece), op.parent_key);
      }
      break;
  }
  if (copy) {
    for (const auto& peer : dht_.replica_set(host, cfg_.replicas)) {
      network().send(host, peer.host, op_bytes(*copy),
                     [this, to = peer.host, op = *copy]() mutable {
                       apply_zone_op(to, nodes_[to]->replicas(), std::move(op),
                                     /*cascade=*/false);
                     });
    }
  }
  if (cascade && changed) propagate_pieces(host, op.addr);
  // A fresh zone whose piece is its extent, or one left holding only that,
  // saturates (its children already got their pieces).
  fold_saturated(store, op.addr, op.key);
}

std::uint64_t HyperSubSystem::op_bytes(const ZoneOp& op) const {
  const SchemeRuntime& rt = *schemes_[op.addr.scheme];
  switch (op.kind) {
    case ZoneOp::Kind::kAdd:
      return install_bytes(op.stored.projected.dimensions());
    case ZoneOp::Kind::kRemove:
      return install_bytes(rt.scheme().arity());
    case ZoneOp::Kind::kPiece:
      // An empty piece (the parent's summary left this child) still names
      // every attribute of the subscheme.
      return install_bytes(
          op.piece.empty() ? rt.subscheme(op.addr.subscheme).attributes().size()
                           : op.piece.dimensions());
  }
  return 0;
}

void HyperSubSystem::propagate_pieces(net::HostIndex host,
                                      const ZoneAddr& addr) {
  const SchemeRuntime& rt = *schemes_[addr.scheme];
  const Subscheme& ss = rt.subscheme(addr.subscheme);
  const lph::ZoneSystem& zsys = ss.zones();
  if (zsys.is_leaf(addr.zone)) return;

  HyperSubNode& nd = *nodes_[host];
  ZoneState* zs = nd.zones().contains(addr) ? &nd.zones().at(addr) : nullptr;
  if (zs == nullptr) return;
  const HyperRect summary = zs->summary();
  const Id my_key = ss.zone_key(addr.zone);

  for (int digit = 0; digit < zsys.base(); ++digit) {
    const lph::Zone child = zsys.child(addr.zone, digit);
    const HyperRect piece = clip(summary, zsys.extent(child));
    if (piece == zs->child_piece(digit)) continue;
    zs->set_child_piece(digit, piece);

    const Id child_key = ss.zone_key(child);
    dht_.route(host, child_key, install_bytes(ss.attributes().size()),
               [this, op = ZoneOp{.kind = ZoneOp::Kind::kPiece,
                                  .addr = ZoneAddr{addr.scheme, addr.subscheme,
                                                   child},
                                  .key = child_key,
                                  .piece = piece,
                                  .parent_key = my_key}](
                   const overlay::Overlay::RouteResult& r) mutable {
                 write_zone(r.owner.host, std::move(op));
               });
  }
}

}  // namespace hypersub::core
