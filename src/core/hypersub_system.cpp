#include "core/hypersub_system.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <compare>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <span>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>

#include "core/state_wire.hpp"

namespace hypersub::core {

namespace {

// Orders next-hop-resolved subids into per-hop groups without allocating
// (std::stable_sort takes a temporary buffer): by hop, then — under cover
// aggregation — by target so same-subscriber runs sit adjacent for the
// grouped wire encoding (subid_list_wire_bytes), then by original
// position. The key is unique, so the order is exactly the stable one.
template <class R>
void sort_by_hop(std::vector<R>& routed, bool by_target) {
  std::sort(routed.begin(), routed.end(), [by_target](const R& a, const R& b) {
    if (a.host != b.host) return a.host < b.host;
    if (by_target && a.subid.target != b.subid.target) {
      return a.subid.target < b.subid.target;
    }
    return a.pos < b.pos;
  });
}

/// `rect` clipped to `ext`; empty when they do not overlap.
HyperRect clip(const HyperRect& rect, const HyperRect& ext) {
  if (rect.empty() || !rect.overlaps(ext)) return HyperRect{};
  return rect.intersect(ext);
}

/// End of the next-hop group of a sorted Routed list that starts at `i`.
template <class R>
std::size_t group_end(const std::vector<R>& routed, std::size_t i) {
  std::size_t j = i;
  while (j < routed.size() && routed[j].host == routed[i].host) ++j;
  return j;
}

}  // namespace

HyperSubSystem::HyperSubSystem(overlay::Overlay& dht, Config cfg)
    : dht_(dht), cfg_(cfg), channel_(dht.network(), cfg.reliable) {
  nodes_.reserve(dht.size());
  caches_.reserve(dht.size());
  for (net::HostIndex h = 0; h < dht.size(); ++h) {
    nodes_.push_back(std::make_unique<HyperSubNode>(
        h, dht.id_of(h), schemes_, cfg_.match_index_threshold,
        cfg_.cover_aggregation));
    caches_.push_back(std::make_unique<RouteCache>());
  }
  batches_.resize(dht.size());
  delivered_subs_.resize(dht.size());
  transfers_out_.resize(dht.size());
  warm_.resize(dht.size());
  event_metrics_.set_streaming(cfg_.stream_event_metrics);
  if (cfg_.bootstrap == BootstrapMode::kOracle) {
    // Setup, not a runtime flip: build before the ownership listener goes
    // in so the initial table construction does not spam invalidations.
    dht_.build(cfg_.build_threads);
  }
  if (cfg_.route_cache) {
    // Coherence hook: when a node's owned key range moves (stabilization,
    // failure repair, oracle rebuild), cached resolutions pointing at it
    // may now land on a non-owner. Stale hits would still self-repair via
    // forward-and-correct; invalidating eagerly keeps the detour window
    // small and the hit counters honest.
    dht_.set_ownership_listener([this](net::HostIndex h) {
      for (auto& c : caches_) c->invalidate_host(h);
    });
    owns_ownership_listener_ = true;
  }
}

HyperSubSystem::~HyperSubSystem() {
  if (owns_ownership_listener_) dht_.set_ownership_listener({});
}

std::uint32_t HyperSubSystem::add_scheme(pubsub::Scheme scheme,
                                         const SchemeOptions& opt) {
  schemes_.push_back(
      std::make_unique<SchemeRuntime>(std::move(scheme), opt));
  return std::uint32_t(schemes_.size() - 1);
}

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

// ---------------------------------------------------------------------------
// Saturated zones
//
// A piece-only zone whose piece is exactly its extent is a code in its
// store's saturated runs; every other zone is a ZoneState. Pieces, installs
// and buckets landing on a saturated zone materialize it first, and a
// ZoneState left holding only its extent folds back, so the two forms never
// overlap.
// ---------------------------------------------------------------------------

namespace {

/// Fill a fresh ZoneState with a piece-only zone's state: `piece` from
/// `parent_key`, and the derived child pieces in the cache.
void seed_piece_only(ZoneState& zs, const lph::ZoneSystem& zsys,
                     const lph::Zone& z, const HyperRect& piece,
                     Id parent_key) {
  zs.set_parent_piece(piece, parent_key);
  if (zsys.is_leaf(z)) return;
  for (int digit = 0; digit < zsys.base(); ++digit) {
    HyperRect child = clip(piece, zsys.extent(zsys.child(z, digit)));
    if (!child.empty()) zs.set_child_piece(digit, std::move(child));
  }
}

}  // namespace

void seed_saturated(ZoneState& zs, const Subscheme& ss, const lph::Zone& z) {
  const lph::ZoneSystem& zsys = ss.zones();
  seed_piece_only(zs, zsys, z, zsys.extent(z),
                  lph::zone_key(zsys, zsys.parent(z), ss.rotation()));
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

void HyperSubSystem::adopt_legacy_image(net::HostIndex host,
                                        const std::vector<V2Chain>& chains) {
  HyperSubNode& nd = *nodes_[host];
  // Each chain member becomes the piece-only ZoneState it stood for.
  for (const V2Chain& c : chains) {
    const lph::ZoneSystem& zsys =
        schemes_[c.scheme]->subscheme(c.subscheme).zones();
    const int head = c.tail.level - int(c.span) + 1;
    for (int level = head; level <= c.tail.level; ++level) {
      const std::size_t i = std::size_t(level - head);
      const lph::Zone z{c.tail.code >> (std::uint64_t(c.tail.level - level) *
                                        std::uint64_t(zsys.base_bits())),
                        level};
      seed_piece_only(nd.primary().zone_state({c.scheme, c.subscheme, z},
                                              c.level_keys[i]),
                      zsys, z, clip(c.piece, zsys.extent(z)),
                      i == 0 ? c.parent_key : c.level_keys[i - 1]);
    }
  }
  // Chain members, and the piece-only zones and husks a v1-v3 writer left.
  for (ZoneStore* store : {&nd.primary(), &nd.replicas()}) {
    std::vector<ZoneAddr> addrs;
    addrs.reserve(store->zones().size());
    for (const auto& [addr, zone] : store->zones()) addrs.push_back(addr);
    for (const ZoneAddr& addr : addrs) {
      fold_saturated(*store, addr, zone_key_of(addr));
    }
  }
}

// ---------------------------------------------------------------------------
// Event publication + delivery (Alg. 4 + Alg. 5)
// ---------------------------------------------------------------------------

std::uint64_t HyperSubSystem::publish(net::HostIndex publisher,
                                      std::uint32_t scheme,
                                      pubsub::Event event,
                                      DeliveryCallback on_delivery) {
  assert(scheme < schemes_.size());
  const SchemeRuntime& rt = *schemes_[scheme];
  assert(pubsub::valid_event(rt.scheme(), event));

  const std::uint64_t seq = ++event_seq_;
  event.seq = seq;

  auto ctx = std::make_shared<EventCtx>();
  ctx->seq = seq;
  ctx->scheme = scheme;
  ctx->origin = publisher;
  ctx->event = std::move(event);
  ctx->on_delivery = std::move(on_delivery);
  ctx->projected.reserve(rt.subscheme_count());
  for (std::size_t i = 0; i < rt.subscheme_count(); ++i) {
    ctx->projected.push_back(rt.subscheme(i).project(ctx->event.point));
  }

  // Tracing: one trace per sampled publish; the publish span is the root
  // of the event's causal tree and closes when the tracker finalizes.
  if (auto* tr = trace::maybe(tracer_)) {
    ctx->trace = tr->start_trace(cfg_.trace_sample_rate);
    if (ctx->trace != trace::kNoTrace) {
      ctx->root = tr->begin(ctx->trace, trace::kNoSpan,
                            trace::SpanKind::kPublish, publisher,
                            simulator().now(), seq, scheme);
    }
  }

  Tracker& t = ctx->tracker;
  t.publish_time = simulator().now();
  live_.emplace(seq, ctx);

  // Initial subid list: one rendezvous (leaf zone) per subscheme. With the
  // route cache on, rendezvous probes whose zone key has a cached owner
  // skip the greedy route and are handed straight to that owner (fast
  // lane); the rest ride normal routing from the publisher.
  std::vector<SubId> list;
  std::vector<Routed> direct;
  ctx->rendezvous.reserve(rt.subscheme_count());
  for (std::uint32_t i = 0; i < rt.subscheme_count(); ++i) {
    const Subscheme& ss = rt.subscheme(i);
    const lph::Zone leaf = ss.zones().locate(ctx->projected[i]);
    const Id key = ss.zone_key(leaf);
    const SubId rendezvous{key, 0, SubIdKind::kRendezvous};
    net::HostIndex cached = overlay::Peer::kInvalidHost;
    if (cfg_.route_cache) {
      cached = caches_[publisher]->lookup(key);
      if (cached == publisher) cached = overlay::Peer::kInvalidHost;
    }
    ctx->rendezvous.push_back(RendezvousProbe{key, cached});
    if (cached != overlay::Peer::kInvalidHost) {
      if (auto* tr = trace::maybe(tracer_);
          tr && ctx->trace != trace::kNoTrace) {
        tr->point(ctx->trace, ctx->root, trace::SpanKind::kCacheHit,
                  publisher, simulator().now(), std::uint64_t(cached));
      }
      direct.push_back(
          Routed{cached, rendezvous, std::uint32_t(direct.size())});
    } else {
      list.push_back(rendezvous);
    }
  }

  sort_by_hop(direct, false);
  for (std::size_t i = 0; i < direct.size();) {
    const net::HostIndex to = direct[i].host;
    const std::size_t j = group_end(direct, i);
    ChunkPtr chunk = make_chunk(ctx, 0, overlay::Peer::kInvalidHost,
                                std::span(direct).subspan(i, j - i));
    i = j;
    ++t.outstanding;
    forward_event(publisher, to, std::move(chunk), ctx->root);
  }

  if (!list.empty()) {
    ++t.outstanding;
    // The publisher-local pass runs on the publisher's shard, like every
    // other event message (process_event_message touches that node's
    // zones, scratch, and forwarding queues).
    simulator().schedule_on(publisher, 0.0,
                            [this, publisher, ctx = std::move(ctx),
                             list = std::move(list)] {
      process_event_message(publisher, ctx, list, 0, ctx->root);
    });
  }
  return seq;
}

void HyperSubSystem::process_event_message(net::HostIndex host,
                                           const EventCtxPtr& ctx,
                                           std::span<const SubId> subids,
                                           int hops, trace::SpanId via) {
  if (WarmState& ws = warm_[host]; ws.warming) {
    // A warming joiner already owns its key range but its zone state is
    // still in flight. Park any message that would match here (it would
    // match against emptiness and silently lose deliveries) and replay it
    // after the transferred state lands. Pure forwarding work (no owned
    // subid) proceeds normally.
    bool owned = false;
    for (const SubId& subid : subids) {
      if (dht_.owns(host, subid.target)) {
        owned = true;
        break;
      }
    }
    if (owned) {
      ws.ops.emplace_back(ParkedEvent{
          ctx, std::vector<SubId>(subids.begin(), subids.end()), hops, via});
      ++join_stats_.events_buffered;
      return;
    }
  }
  HyperSubNode& nd = *nodes_[host];
  // Every tracker touch checks `done` — the event may already have been
  // force-finalized (finalize_events() during churn runs); keep
  // delivering, just stop accounting.
  Tracker& t = ctx->tracker;
  if (!t.done) t.max_hops = std::max(t.max_hops, hops);

  // One match span per processed message; everything this node records
  // (deliveries, drops, cache corrections, outgoing forwards) chains under
  // it, and it chains under the message that brought the event here.
  trace::SpanId match_span = trace::kNoSpan;
  if (auto* tr = trace::maybe(tracer_);
      tr && ctx->trace != trace::kNoTrace) {
    match_span = tr->begin(ctx->trace, via, trace::SpanKind::kMatch, host,
                           simulator().now(), std::uint64_t(hops),
                           subids.size());
  }

  // Phase 1 (Alg. 5 lines 3-23): consume subids targeting this node; their
  // matches go back on the worklist because a freshly matched target (a
  // parent zone, a subscriber, a migration acceptor) may be owned by this
  // very node. The worklist, `pending` and `matched_keys` are system-held
  // scratch — the delivery path allocates nothing per message beyond one
  // chunk block per outgoing next-hop group, which the frame must own.
  Scratch& scratch = scratch_;
  std::vector<SubId>& list = scratch.work;
  list.assign(subids.begin(), subids.end());
  std::vector<SubId>& pending = scratch.pending;
  pending.clear();
  // One zone key aliases a zone and its rightmost descendants, and a
  // zone's parent pointer may target the same key the rendezvous did —
  // process each key at most once per message. The handful of keys per
  // message makes a linear find over a flat vector cheaper than hashing.
  std::vector<Id>& matched_keys = scratch.keys;
  matched_keys.clear();
  std::size_t cursor = 0;
  while (cursor < list.size()) {
    const SubId subid = list[cursor++];
    if (!dht_.owns(host, subid.target)) {
      pending.push_back(subid);
      continue;
    }
    switch (subid.kind) {
      case SubIdKind::kRendezvous:
      case SubIdKind::kZone: {
        if (subid.kind == SubIdKind::kRendezvous && cfg_.route_cache) {
          note_rendezvous_owner(host, ctx, subid.target, match_span);
        }
        if (std::find(matched_keys.begin(), matched_keys.end(),
                      subid.target) != matched_keys.end()) {
          break;
        }
        matched_keys.push_back(subid.target);
        // Both stores match. Replicas are the failover path: we own this
        // key (possibly inherited after the primary's failure). While the
        // primary is alive this node never owns the key, so replicas are
        // never matched redundantly; post-failover, a subscription lives
        // either in the replica (pre-failure) or in fresh primary state
        // (post-failure), never both, and duplicate zone pointers collapse
        // in the per-message key dedupe above.
        for (ZoneStore* store : {&nd.primary(), &nd.replicas()}) {
          auto& zlist = scratch.zones;
          zlist.clear();
          store->append_zones_by_key(subid.target, zlist);
          for (ZoneState* zs : zlist) {
            if (zs->addr().scheme != ctx->scheme) continue;
            const Point& proj = ctx->projected[zs->addr().subscheme];
            zs->match(ctx->event.point, proj, list);
          }
          // Saturated zones under this key match like the piece-only
          // ZoneStates they stand for: the piece is the zone's extent, so
          // a point inside it climbs by emitting the parent key; the
          // per-message key dedupe above absorbs re-emissions. The zones
          // of one key nest (deeper ones are rightmost descendants), so
          // going shallowest first, the first miss ends the scan.
          store->for_each_saturated_at(subid.target, [&](std::uint32_t scheme,
                                                         std::uint32_t ssi,
                                                         std::uint64_t mask) {
            if (scheme != ctx->scheme) return;
            const Subscheme& ss = schemes_[scheme]->subscheme(ssi);
            const lph::ZoneSystem& zsys = ss.zones();
            const Point& proj = ctx->projected[ssi];
            for (; mask != 0; mask &= mask - 1) {
              const lph::Zone z =
                  ss.zone_at(subid.target, std::countr_zero(mask));
              if (!zsys.extent_contains(z, proj)) break;
              list.push_back(
                  SubId{lph::zone_key(zsys, zsys.parent(z), ss.rotation()), 0,
                        SubIdKind::kZone});
            }
          });
        }
        break;
      }
      case SubIdKind::kSubscriber: {
        // Deliver only if this node *is* the subscriber (a successor that
        // merely inherited the id range after a failure drops it).
        if (subid.target == nd.node_id()) {
          // End-to-end dedupe: a rerouted subtree can re-match the same
          // subscription through a different path.
          if (cfg_.reliable_delivery &&
              !delivered_subs_[host][ctx->seq]
                   .emplace(subid.target, subid.iid)
                   .second) {
            ++rel_.duplicates_suppressed;
            break;
          }
          if (auto* tr = trace::maybe(tracer_);
              tr && ctx->trace != trace::kNoTrace) {
            tr->point(ctx->trace, match_span, trace::SpanKind::kDeliver,
                      host, simulator().now(), subid.iid,
                      std::uint64_t(hops));
          }
          double lat = 0.0;
          if (!t.done) {
            ++t.matched;
            lat = simulator().now() - t.publish_time;
            t.max_latency = std::max(t.max_latency, lat);
          }
          const Delivery d{ctx->seq, host, subid.iid, hops, lat};
          sink_->on_delivery(d);
          if (ctx->on_delivery) ctx->on_delivery(d);
        }
        break;
      }
      case SubIdKind::kMigrated: {
        if (subid.target == nd.node_id()) {
          if (const MigratedRepo* repo = nd.find_migrated(subid.iid)) {
            repo->match(ctx->event.point, list, scratch.cand);
          }
        }
        break;
      }
    }
  }

  // Phase 2 (Alg. 5 lines 20-29): split the remaining subids across DHT
  // links; all subids sharing a next hop ride in one message. Grouping by
  // a stable order over a flat (next hop, subid) vector keeps each group's
  // subid order identical to the old per-bucket insertion order.
  auto& routed = scratch.routed;
  routed.clear();
  if (cfg_.reliable_delivery && hops >= kMaxEventHops) {
    // Hop TTL: reroutes can detour through stale routing state; bound any
    // livelock with a counted, truncated-flagged drop.
    if (auto* tr = trace::maybe(tracer_);
        tr && ctx->trace != trace::kNoTrace && !pending.empty()) {
      tr->point(ctx->trace, match_span, trace::SpanKind::kDrop, host,
                simulator().now(), pending.size());
    }
    note_event_drop(*ctx, pending.size());
    pending.clear();
  }
  for (const SubId& subid : pending) {
    const overlay::Peer next = dht_.next_hop(host, subid.target);
    if (!next.valid()) {  // isolated node; drop
      if (cfg_.reliable_delivery) {
        if (auto* tr = trace::maybe(tracer_);
            tr && ctx->trace != trace::kNoTrace) {
          tr->point(ctx->trace, match_span, trace::SpanKind::kDrop, host,
                    simulator().now(), 1);
        }
        note_event_drop(*ctx, 1);
      }
      continue;
    }
    routed.push_back(Routed{next.host, subid, std::uint32_t(routed.size())});
  }
  sort_by_hop(routed, cfg_.cover_aggregation);
  for (std::size_t i = 0; i < routed.size();) {
    const net::HostIndex to = routed[i].host;
    const std::size_t j = group_end(routed, i);
    ChunkPtr chunk = make_chunk(ctx, hops, overlay::Peer::kInvalidHost,
                                std::span(routed).subspan(i, j - i));
    i = j;
    if (!t.done) ++t.outstanding;
    forward_event(host, to, std::move(chunk), match_span);
  }
  if (auto* tr = trace::maybe(tracer_)) {
    tr->end(match_span, simulator().now());
  }

  // Retire this hop's outstanding slot, after the increments for the
  // forwards above, so the count never dips to zero early.
  if (!t.done) {
    assert(t.outstanding > 0);
    --t.outstanding;
    finalize_if_done(*ctx);
  }
}

void HyperSubSystem::ChunkFree::operator()(FrameChunk* c) const noexcept {
  c->~FrameChunk();
  ::operator delete(c);
}

HyperSubSystem::ChunkPtr HyperSubSystem::make_chunk(
    const EventCtxPtr& ctx, int hops, net::HostIndex failed,
    std::span<const Routed> group) {
  static_assert(std::is_trivially_copyable_v<SubId> &&
                std::is_trivially_destructible_v<SubId>);
  static_assert(alignof(SubId) <= alignof(FrameChunk) &&
                    sizeof(FrameChunk) % alignof(SubId) == 0,
                "the SubIds after a chunk header must be aligned");
  void* mem = ::operator new(sizeof(FrameChunk) + group.size() * sizeof(SubId));
  ChunkPtr c(::new (mem) FrameChunk{ctx, nullptr, hops,
                                    std::uint32_t(group.size()), failed,
                                    trace::kNoSpan});
  SubId* out = c->data();
  for (const Routed& r : group) {
    ::new (static_cast<void*>(out++)) SubId(r.subid);
  }
  return c;
}

void HyperSubSystem::forward_event(net::HostIndex host, net::HostIndex to,
                                   ChunkPtr chunk, trace::SpanId parent) {
  // The forward span covers the message's time on the wire: opened here at
  // the sender, closed when the receiver takes delivery (or at ack expiry
  // when the hop is dead). It travels with the chunk through batching.
  if (auto* tr = trace::maybe(tracer_);
      tr && chunk->ctx->trace != trace::kNoTrace) {
    chunk->fwd_span =
        tr->begin(chunk->ctx->trace, parent, trace::SpanKind::kForward, host,
                  simulator().now(), std::uint64_t(to), chunk->n);
  }
  if (!cfg_.batch_forwarding) {
    send_frame(host, to, Frame(std::move(chunk)));
    return;
  }
  // Batched: queue the chunk and flush once this timestep. The simulator
  // breaks equal-time ties FIFO, so the flush scheduled at +0 runs after
  // every already-queued message of this timestep has had its chance to
  // add chunks for the same hop.
  Frame& queue = batches_[host][to];
  if (queue.empty()) {
    simulator().schedule(0.0, [this, host, to] { flush_batch(host, to); });
  }
  queue.push_back(std::move(chunk));
}

void HyperSubSystem::flush_batch(net::HostIndex host, net::HostIndex to) {
  auto& mine = batches_[host];
  const auto it = mine.find(to);
  if (it == mine.end() || it->second.empty()) return;
  Frame frame = std::move(it->second);
  mine.erase(it);
  if (const std::size_t k = frame.size(); k > 1) {
    batch_.header_bytes_saved += overlay::kHeaderBytes * (k - 1);
  }
  send_frame(host, to, std::move(frame));
}

void HyperSubSystem::FrameDelivery::operator()() {
  // §6 piggyback: event traffic doubles as liveness evidence for the DHT
  // layer (no-op unless enabled).
  sys->dht_.note_app_contact(to, sender);
  if (auto* tr = trace::maybe(sys->tracer_)) {
    const double now = sys->simulator().now();
    for (const FrameChunk& c : frame) tr->end(c.fwd_span, now);
  }
  for (const FrameChunk& c : frame) {
    sys->process_event_message(to, c.ctx, c.subids(), c.hops + 1,
                               c.fwd_span);
  }
}

void HyperSubSystem::send_frame(net::HostIndex host, net::HostIndex to,
                                Frame frame) {
  // One header per frame; each chunk pays its own event + subid payload.
  // The header is attributed to the first chunk whose tracker is not done.
  std::uint64_t bytes = overlay::kHeaderBytes;
  bool header_charged = false;
  for (const FrameChunk& c : frame) {
    const std::uint64_t subid_bytes =
        subid_list_wire_bytes(c.subids(), cfg_.cover_aggregation);
    const std::uint64_t chunk_bytes = kEventBytes + subid_bytes;
    subid_wire_bytes_ += subid_bytes;
    if (cfg_.cover_aggregation) {
      cover_subid_bytes_saved_ += kSubIdBytes * c.n - subid_bytes;
    }
    bytes += chunk_bytes;
    if (Tracker& t = c.ctx->tracker; !t.done) {
      t.bytes += chunk_bytes;
      if (!header_charged) {
        t.bytes += overlay::kHeaderBytes;
        t.header_bytes += overlay::kHeaderBytes;
        header_charged = true;
      }
    }
    ++batch_.chunks;
  }
  ++batch_.frames;

  const Id sender = dht_.id_of(host);
  if (!cfg_.reliable_delivery) {
    network().send(host, to, bytes,
                   FrameDelivery{this, to, sender, std::move(frame)});
    return;
  }
  // The channel's retry/expire spans attach under the first traced chunk's
  // forward span (one ack per frame; attributing its retransmissions to
  // one chunk of the frame keeps the export honest enough).
  trace::TraceCtx tctx;
  if (trace::maybe(tracer_)) {
    for (const FrameChunk& c : frame) {
      if (c.ctx->trace != trace::kNoTrace && c.fwd_span != trace::kNoSpan) {
        tctx = trace::TraceCtx{c.ctx->trace, c.fwd_span};
        break;
      }
    }
  }
  // The deliver and expire closures share the same chunk blocks.
  auto shared = std::make_shared<Frame>(std::move(frame));
  channel_.send(
      host, to, bytes,
      [this, host, to, sender, shared] {
        // Piggybacked failure gossip: the sender detoured around a dead
        // hop to reach us; drop it from our routing state (and our route
        // cache) and treat the sender as a predecessor candidate for the
        // inherited range.
        for (const FrameChunk& c : *shared) {
          if (c.failed == overlay::Peer::kInvalidHost) continue;
          dht_.note_peer_failure(to, c.failed, host);
          if (cfg_.route_cache) caches_[to]->invalidate_host(c.failed);
        }
        dht_.note_app_contact(to, sender);
        if (auto* tr = trace::maybe(tracer_)) {
          const double now = simulator().now();
          for (const FrameChunk& c : *shared) tr->end(c.fwd_span, now);
        }
        for (FrameChunk& c : *shared) {
          process_event_message(to, c.ctx, c.subids(), c.hops + 1,
                                c.fwd_span);
          // Consumed: if this frame's ack still expires (it arrives after
          // the deadline), the reroute below must find nothing to resend.
          c.n = 0;
        }
      },
      [this, host, to, shared] {
        // All retransmissions expired: the next hop is dead. Drop it from
        // the sender's routing state and route cache, reroute every
        // chunk's subids through recomputed hops, then retire each
        // chunk's outstanding slot. A chunk the receiver consumed (its ack
        // came back late) was processed and retired on arrival, so it is
        // skipped. Forward spans close here — the hop they describe is
        // over, even though it failed; the reroute's new forward spans
        // chain under them.
        dht_.note_peer_failure(host, to);
        if (cfg_.route_cache) caches_[host]->invalidate_host(to);
        if (auto* tr = trace::maybe(tracer_)) {
          const double now = simulator().now();
          for (const FrameChunk& c : *shared) tr->end(c.fwd_span, now);
        }
        for (const FrameChunk& c : *shared) {
          if (c.n == 0) continue;
          reroute_event(host, c.ctx, c.subids(), c.hops, to, c.fwd_span);
          // reroute_event adds its outstanding increments first, so this
          // decrement follows them — the count stays positive.
          if (Tracker& t = c.ctx->tracker; !t.done) {
            assert(t.outstanding > 0);
            --t.outstanding;
            finalize_if_done(*c.ctx);
          }
        }
      },
      tctx);
}

void HyperSubSystem::reroute_event(net::HostIndex host, const EventCtxPtr& ctx,
                                   std::span<const SubId> subids, int hops,
                                   net::HostIndex failed,
                                   trace::SpanId parent) {
  // Cold failover path: a local grouping buffer (the scratch vectors may
  // hold a caller's live state — ack expiries interleave arbitrarily with
  // event processing).
  auto* tr = trace::maybe(tracer_);
  const bool traced = tr != nullptr && ctx->trace != trace::kNoTrace;
  std::vector<Routed> routed;
  routed.reserve(subids.size());
  for (const SubId& subid : subids) {
    const overlay::Peer next = dht_.next_hop(host, subid.target);
    if (!next.valid() || next.host == failed) {
      // No viable alternative hop: an unmasked drop.
      if (traced) {
        tr->point(ctx->trace, parent, trace::SpanKind::kDrop, host,
                  simulator().now(), 1, std::uint64_t(failed));
      }
      note_event_drop(*ctx, 1);
      continue;
    }
    routed.push_back(Routed{next.host, subid, std::uint32_t(routed.size())});
  }
  sort_by_hop(routed, false);
  for (std::size_t i = 0; i < routed.size();) {
    const net::HostIndex to = routed[i].host;
    const std::size_t j = group_end(routed, i);
    ChunkPtr chunk =
        make_chunk(ctx, hops, failed, std::span(routed).subspan(i, j - i));
    i = j;
    ++rel_.reroutes;
    if (!ctx->tracker.done) ++ctx->tracker.outstanding;
    if (traced) {
      tr->point(ctx->trace, parent, trace::SpanKind::kReroute, host,
                simulator().now(), std::uint64_t(to),
                std::uint64_t(failed));
    }
    // Same hop count: the detour replaces the failed hop rather than
    // extending the logical path (the TTL still bounds repeated detours
    // through the receiver's own forwarding).
    forward_event(host, to, std::move(chunk), parent);
  }
}

void HyperSubSystem::note_rendezvous_owner(net::HostIndex host,
                                           const EventCtxPtr& ctx, Id key,
                                           trace::SpanId parent) {
  if (ctx->origin == overlay::Peer::kInvalidHost) return;
  for (const RendezvousProbe& rv : ctx->rendezvous) {
    if (rv.key != key) continue;
    if (host == ctx->origin) {
      // The publisher itself owns the rendezvous: a cache-directed probe
      // that came back here means the entry detoured through a non-owner —
      // drop it so the next publish resolves locally.
      if (rv.sent_to != overlay::Peer::kInvalidHost && rv.sent_to != host) {
        if (auto* tr = trace::maybe(tracer_);
            tr && ctx->trace != trace::kNoTrace) {
          tr->point(ctx->trace, parent, trace::SpanKind::kCacheCorrect,
                    host, simulator().now(), std::uint64_t(ctx->origin));
        }
        caches_[host]->forget(key);
      }
    } else if (rv.sent_to != host) {
      // Miss (probe rode normal routing) or stale hit (probe was handed to
      // a former owner, which forwarded it here): tell the publisher who
      // really owns the key. A small untracked control message — it rides
      // the network (and its traffic counters) but is not part of the
      // event's delivery tree.
      if (auto* tr = trace::maybe(tracer_);
          tr && ctx->trace != trace::kNoTrace) {
        tr->point(ctx->trace, parent, trace::SpanKind::kCacheCorrect, host,
                  simulator().now(), std::uint64_t(ctx->origin));
      }
      network().send(
          host, ctx->origin,
          overlay::kHeaderBytes + overlay::kKeyBytes + overlay::kNodeRefBytes,
          [this, origin = ctx->origin, key, owner = host] {
            caches_[origin]->learn(key, owner);
          });
    }
    return;  // duplicate keys across subschemes alias the same owner
  }
}

void HyperSubSystem::invalidate_cached_route(Id key) {
  if (!cfg_.route_cache) return;
  for (auto& c : caches_) c->forget(key);
}

void HyperSubSystem::note_event_drop(const EventCtx& ctx,
                                     std::size_t subids) {
  if (subids == 0) return;
  rel_.unmasked_drops += subids;
  if (!ctx.tracker.done) ctx.tracker.truncated = true;
}

void HyperSubSystem::finalize_if_done(const EventCtx& ctx) {
  Tracker& t = ctx.tracker;
  if (t.done || t.outstanding != 0) return;
  if (auto* tr = trace::maybe(tracer_)) {
    tr->end(ctx.root, simulator().now());
  }
  metrics::EventRecord r;
  r.seq = ctx.seq;
  r.matched = t.matched;
  r.pct_matched = total_subs_ > 0
                      ? 100.0 * double(t.matched) / double(total_subs_)
                      : 0.0;
  r.max_hops = t.max_hops;
  r.max_latency_ms = t.max_latency;
  r.bandwidth_bytes = t.bytes;
  r.header_bytes = t.header_bytes;
  r.truncated = t.truncated;
  if (t.truncated) ++rel_.truncated_events;
  event_metrics_.add(r);
  t.done = true;
  live_.erase(r.seq);  // last: this may release the context
}

void HyperSubSystem::finalize_events() {
  // Messages dropped at dead nodes leave outstanding counts above zero;
  // flush whatever remains (their partial costs are still meaningful), in
  // seq order, and flag them truncated — part of the tree never completed.
  while (!live_.empty()) {
    // A copy: finalizing erases the entry, which may be the last owner.
    const EventCtxPtr ctx = live_.begin()->second;
    Tracker& t = ctx->tracker;
    if (t.outstanding > 0) t.truncated = true;
    t.outstanding = 0;
    finalize_if_done(*ctx);
  }
}

metrics::ReliabilityCounters HyperSubSystem::reliability_counters() const {
  const net::ReliableChannel::Stats& s = channel_.stats();
  metrics::ReliabilityCounters c = rel_;
  c.messages_sent += s.sent;
  c.acks += s.acked;
  c.retries += s.retries;
  c.expirations += s.expired;
  c.duplicates_suppressed += s.duplicates_suppressed;
  return c;
}

void HyperSubSystem::reset_metrics() {
  event_metrics_ = metrics::EventMetrics{};
  event_metrics_.set_streaming(cfg_.stream_event_metrics);
  sink_->reset();
  default_sink_.reset();
  for (auto& m : delivered_subs_) m.clear();
  rel_ = metrics::ReliabilityCounters{};
  channel_.reset_stats();
  batch_ = metrics::BatchCounters{};
  cover_subid_bytes_saved_ = 0;
  subid_wire_bytes_ = 0;
  // Cached routes stay warm across a reset; only their counters restart.
  for (auto& c : caches_) c->reset_counters();
}

metrics::CoverCounters HyperSubSystem::cover_counters() const {
  metrics::CoverCounters sum;
  sum.subid_bytes_saved = cover_subid_bytes_saved_;
  sum.subid_wire_bytes = subid_wire_bytes_;
  // Primary zones only: replica zones mirror the same subscriptions and
  // would double-count the gauges.
  for (const auto& nd : nodes_) {
    for (const auto& [addr, z] : nd->zones()) {
      sum.representatives += z.cover_representatives();
      sum.quenched += z.cover_quenched();
      sum.promotions += z.cover_promotions();
    }
  }
  return sum;
}

metrics::RouteCacheCounters HyperSubSystem::route_cache_counters() const {
  metrics::RouteCacheCounters sum;
  for (const auto& c : caches_) sum += c->counters();
  return sum;
}

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

// ---------------------------------------------------------------------------
// Node lifecycle: protocol join/leave with live state transfer.
//
// Join: the joiner enters the ring via the overlay's join protocol, then
// "warms" — it buffers everything addressed to it — while pulling a snapshot
// of the moved zones from the current owner. The owner keeps serving and
// write-behind-queues every in-range mutation; a periodic tick ships the
// queue and, once stabilization flips ownership to the joiner, sends a
// commit that flushes the warm buffers and retires the owner's copies.
//
// Leave: the same machinery inverted — the leaver pushes its whole zone set
// to its successor, drains the queue, bridges late arrivals, then splices
// out of the ring and dies.

namespace {

/// Deterministic zone ordering for transfer images: by rotated key, then
/// address (map iteration order is not stable across runs).
bool zone_order(const std::pair<Id, ZoneAddr>& x,
                const std::pair<Id, ZoneAddr>& y) {
  if (x.first != y.first) return x.first < y.first;
  const ZoneAddr& a = x.second;
  const ZoneAddr& b = y.second;
  if (a.scheme != b.scheme) return a.scheme < b.scheme;
  if (a.subscheme != b.subscheme) return a.subscheme < b.subscheme;
  if (a.zone.level != b.zone.level) return a.zone.level < b.zone.level;
  return a.zone.code < b.zone.code;
}

}  // namespace

bool HyperSubSystem::transfer_moves(const TransferOut& t, Id key) {
  if (t.leaving) return true;
  // Successor geometry: after the flip the old owner keeps (joiner, self];
  // every other key it held belongs to the joiner.
  const Id a = t.target_id;
  const Id b = t.my_id;
  const bool keeps = a < b ? (key > a && key <= b) : (key > a || key <= b);
  return !keeps;
}

Id HyperSubSystem::zone_key_of(const ZoneAddr& addr) const {
  return schemes_[addr.scheme]->subscheme(addr.subscheme).zone_key(addr.zone);
}

std::vector<std::pair<Id, ZoneAddr>> HyperSubSystem::zones_in_order(
    net::HostIndex host, bool saturated) const {
  const ZoneStore& store = nodes_[host]->primary();
  std::vector<std::pair<Id, ZoneAddr>> out;
  out.reserve(store.zones().size() + (saturated ? store.saturated_count() : 0));
  for (const auto& [addr, zone] : store.zones()) {
    out.emplace_back(zone_key_of(addr), addr);
  }
  if (saturated) {
    store.for_each_saturated(
        [&](const ZoneAddr& addr, Id key) { out.emplace_back(key, addr); });
  }
  std::sort(out.begin(), out.end(), zone_order);
  return out;
}

std::vector<std::uint8_t> HyperSubSystem::serialize_moved_zones(
    net::HostIndex owner, const TransferOut& t,
    std::uint32_t* moved_entries) const {
  const HyperSubNode& nd = *nodes_[owner];
  std::vector<std::pair<Id, ZoneAddr>> moved = zones_in_order(owner);
  std::erase_if(moved, [&](const auto& kz) {
    return !transfer_moves(t, kz.first);
  });
  common::ByteWriter w;
  w.u32(std::uint32_t(moved.size()));
  for (const auto& [key, addr] : moved) {
    w.u64(key);
    save_zone_addr(w, addr);
    nd.zones().at(addr).save(w);
  }
  // Saturated zones ship as whole-key rows: a key moves as a whole.
  const std::size_t saturated = nd.primary().save_saturated(
      w, [&](Id key) { return transfer_moves(t, key); });
  if (moved_entries != nullptr) {
    *moved_entries = std::uint32_t(moved.size() + saturated);
  }
  return w.take();
}

void HyperSubSystem::install_transferred_zones(net::HostIndex host,
                                               common::ByteReader& r) {
  HyperSubNode& nd = *nodes_[host];
  // The shipped image is authoritative: it supersedes any primary leftover
  // from a past life and the replica copy of the same zone.
  const auto clear = [&nd](const ZoneAddr& addr, Id key) {
    for (ZoneStore* store : {&nd.primary(), &nd.replicas()}) {
      store->erase_zone(addr, key);
      store->clear_saturated(addr);
    }
  };
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const Id key = r.u64();
    const ZoneAddr addr = load_zone_addr(r);
    clear(addr, key);
    nd.primary().zone_state(addr, key).restore(r);
  }
  const std::uint32_t n_rows = r.u32();
  for (std::uint32_t i = 0; i < n_rows; ++i) {
    const std::uint32_t scheme = r.u32();
    const std::uint32_t ssi = r.u32();
    const Id key = r.u64();
    const std::uint64_t mask = r.u64();
    const Subscheme& ss = schemes_[scheme]->subscheme(ssi);
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
      const ZoneAddr addr{scheme, ssi, ss.zone_at(key, std::countr_zero(m))};
      clear(addr, key);
      nd.primary().set_saturated(addr);
    }
  }
}

void HyperSubSystem::reseed_replicas(net::HostIndex owner, const ZoneAddr& addr,
                                     Id key) {
  if (cfg_.replicas == 0) return;
  const ZoneStore& primary = nodes_[owner]->primary();
  const auto it = primary.zones().find(addr);
  const bool saturated = it == primary.zones().end();
  if (saturated && !primary.saturated(addr)) return;
  // One full image, replacing (not merging into) each heir's copy — the
  // write-behind replays are replica-blind, so merge would drift. A
  // saturated zone's image is empty: the heirs saturate it.
  auto image = std::make_shared<std::vector<std::uint8_t>>();
  if (!saturated) {
    common::ByteWriter w;
    it->second.save(w);
    *image = w.take();
  }
  const std::uint64_t bytes = overlay::kHeaderBytes + image->size();
  std::uint64_t sent = 0;
  for (const auto& peer : dht_.replica_set(owner, cfg_.replicas)) {
    if (peer.host == owner || !network().alive(peer.host)) continue;
    sent += bytes;
    network().send(owner, peer.host, bytes,
                   [this, host = peer.host, addr, key, image, saturated] {
                     ZoneStore& rs = nodes_[host]->replicas();
                     rs.erase_zone(addr, key);
                     rs.clear_saturated(addr);
                     if (saturated) {
                       rs.set_saturated(addr);
                       return;
                     }
                     common::ByteReader r(*image);
                     rs.zone_state(addr, key).restore(r);
                   });
  }
  join_stats_.transfer_bytes += sent;
}

void HyperSubSystem::join_node(net::HostIndex host, net::HostIndex bootstrap) {
  assert(host < nodes_.size() && bootstrap < nodes_.size());
  assert(host != bootstrap);
  assert(network().alive(bootstrap));
  if (!network().alive(host)) network().revive(host);
  // A fresh life: surrogate-side state comes back through the transfer;
  // this node's own subscriptions stay installed at their surrogates.
  nodes_[host]->reset_surrogate_state();
  WarmState& ws = warm_[host];
  const std::uint64_t epoch = ws.epoch + 1;
  ws = WarmState{};
  ws.epoch = epoch;
  ws.warming = true;
  ws.started_ms = simulator().now();
  ++join_stats_.joins_started;
  if (!dht_.join(host, bootstrap,
                 [this, host] { begin_state_transfer(host); })) {
    // Substrate without a join protocol (e.g. Pastry stub): nothing will
    // arrive — serve cold immediately.
    ws.warming = false;
    return;
  }
  // Failsafe: if the snapshot source dies or stabilization stalls, stop
  // warming and serve with whatever arrived — degraded but live.
  simulator().schedule_on(host, kHandoverTimeoutMs,
                          [this, host, epoch] {
                            WarmState& w2 = warm_[host];
                            if (w2.warming && w2.epoch == epoch &&
                                network().alive(host)) {
                              ++join_stats_.joins_aborted;
                              finish_warming(host);
                            }
                          });
}

void HyperSubSystem::begin_state_transfer(net::HostIndex joiner) {
  WarmState& ws = warm_[joiner];
  if (!ws.warming || !network().alive(joiner)) return;
  const overlay::Peer heir = dht_.heir_of(joiner);
  if (!heir.valid() || heir.host == joiner || !network().alive(heir.host)) {
    // Nobody to pull from (first node in, or the successor is gone):
    // serve with whatever replication and maintenance bring.
    finish_warming(joiner);
    return;
  }
  ws.source = heir.host;
  // TRANSFER_REQ: header + two node refs.
  network().send(joiner, heir.host, overlay::kHeaderBytes + 16,
                 [this, owner = heir.host, joiner] {
                   handle_transfer_request(owner, joiner);
                 });
}

void HyperSubSystem::handle_transfer_request(net::HostIndex owner,
                                             net::HostIndex joiner) {
  if (!network().alive(owner) || !network().alive(joiner)) return;
  TransferOut& t = transfers_out_[owner];
  // One outbound session at a time; a second joiner pulling the same owner
  // is dropped and degrades via its warm timeout (rare under real churn).
  if (t.active) return;
  const std::uint64_t epoch = t.epoch + 1;
  t = TransferOut{};
  t.epoch = epoch;
  t.active = true;
  t.target = joiner;
  t.target_id = dht_.id_of(joiner);
  t.my_id = dht_.id_of(owner);
  t.started_ms = simulator().now();
  t.deadline_ms = simulator().now() + kHandoverTimeoutMs;
  // Snapshot synchronously: every mutation after this instant is captured
  // by the write-behind queue, so snapshot + replay = exact state.
  std::uint32_t zones = 0;
  auto frame = std::make_shared<std::vector<std::uint8_t>>(
      serialize_moved_zones(owner, t, &zones));
  const std::uint64_t bytes = overlay::kHeaderBytes + frame->size();
  join_stats_.transfer_bytes += bytes;
  join_stats_.zones_transferred += zones;
  network().send(owner, joiner, bytes, [this, joiner, frame] {
    WarmState& ws = warm_[joiner];
    if (ws.warming) {
      ws.staged.push_back(std::move(*frame));
    }
    // Not warming (timeout already fired): drop — the owner aborts at its
    // deadline and keeps the authoritative copy.
  });
  schedule_handover_tick(owner, epoch);
}

void HyperSubSystem::schedule_handover_tick(net::HostIndex owner,
                                            std::uint64_t epoch) {
  simulator().schedule_on(owner, cfg_.handover_tick_ms,
                          [this, owner, epoch] { handover_tick(owner, epoch); });
}

void HyperSubSystem::handover_tick(net::HostIndex owner, std::uint64_t epoch) {
  TransferOut& t = transfers_out_[owner];
  if (!t.active || t.epoch != epoch || t.committed) return;
  if (!network().alive(owner)) return;  // died mid-transfer: crash semantics
  if (!network().alive(t.target) || simulator().now() >= t.deadline_ms) {
    abort_transfer(owner);
    return;
  }
  if (!t.queue.empty()) {
    // Ship the write-behind batch. FIFO per host pair keeps every batch
    // ordered after the snapshot frame and before the commit.
    std::uint64_t bytes = overlay::kHeaderBytes;
    for (const ZoneOp& op : t.queue) bytes += op_bytes(op);
    std::vector<ZoneOp> ops = std::move(t.queue);
    t.queue.clear();
    join_stats_.transfer_bytes += bytes;
    network().send(owner, t.target, bytes,
                   [this, to = t.target, ops = std::move(ops)]() mutable {
      WarmState& ws = warm_[to];
      if (ws.warming) {
        for (ZoneOp& op : ops) ws.transfer_ops.push_back(std::move(op));
      } else {
        // Leave target (or a degraded joiner): the snapshot is already
        // installed, apply in place.
        for (ZoneOp& op : ops) {
          apply_zone_op(to, nodes_[to]->primary(), std::move(op),
                        /*cascade=*/false);
        }
      }
    });
    schedule_handover_tick(owner, epoch);
    return;
  }
  if (!t.leaving && dht_.owns(owner, t.target_id)) {
    // Stabilization has not flipped ownership to the joiner yet.
    schedule_handover_tick(owner, epoch);
    return;
  }
  if (t.leaving) {
    commit_leave_handover(owner);
  } else {
    commit_join_handover(owner);
  }
}

void HyperSubSystem::commit_join_handover(net::HostIndex owner) {
  TransferOut& t = transfers_out_[owner];
  t.committed = true;  // stop ticking; await the joiner's ack
  const std::uint64_t epoch = t.epoch;
  // Lost-ack failsafe (the joiner died with the commit in flight): clear
  // the session at the deadline so the owner can serve future transfers.
  simulator().schedule_on(
      owner,
      std::max(0.0, t.deadline_ms - simulator().now()) + cfg_.handover_tick_ms,
      [this, owner, epoch] {
        TransferOut& t2 = transfers_out_[owner];
        if (t2.active && t2.epoch == epoch) abort_transfer(owner);
      });
  network().send(
      owner, t.target, overlay::kHeaderBytes,
      [this, owner, joiner = t.target, epoch, started = t.started_ms] {
        WarmState& ws = warm_[joiner];
        const bool ok = ws.warming;
        if (ok) {
          finish_warming(joiner);
          const double handoff = simulator().now() - started;
          ++join_stats_.joins_committed;
          join_stats_.total_handoff_ms += handoff;
          if (handoff > join_stats_.max_handoff_ms) {
            join_stats_.max_handoff_ms = handoff;
          }
        }
        network().send(joiner, owner, overlay::kHeaderBytes,
                       [this, owner, epoch, ok] {
          TransferOut& t2 = transfers_out_[owner];
          if (!t2.active || t2.epoch != epoch) return;
          if (ok) {
            // The joiner serves the range now: retire the moved zones and
            // flush every cached route that pointed at them — the same
            // invalidation a death or LB migration emits.
            ZoneStore& store = nodes_[owner]->primary();
            for (const auto& [key, addr] :
                 zones_in_order(owner, /*saturated=*/true)) {
              if (!transfer_moves(t2, key)) continue;
              store.erase_zone(addr, key);
              store.clear_saturated(addr);
              invalidate_cached_route(key);
            }
          } else {
            // The joiner gave up warming before the commit arrived: keep
            // the zones — this is an abort, not a commit.
            ++join_stats_.joins_aborted;
          }
          const std::uint64_t e = t2.epoch;
          t2 = TransferOut{};
          t2.epoch = e;
        });
      });
}

void HyperSubSystem::commit_leave_handover(net::HostIndex owner) {
  TransferOut& t = transfers_out_[owner];
  t.committed = true;  // bridge mode: late in-range ops forward to target
  const std::uint64_t epoch = t.epoch;
  // Everything moved; collect the set for the target-side fixups.
  auto moved = std::make_shared<std::vector<std::pair<Id, ZoneAddr>>>(
      zones_in_order(owner, /*saturated=*/true));
  simulator().schedule_on(
      owner,
      std::max(0.0, t.deadline_ms - simulator().now()) + cfg_.handover_tick_ms,
      [this, owner, epoch] {
        TransferOut& t2 = transfers_out_[owner];
        if (t2.active && t2.epoch == epoch && network().alive(owner)) {
          abort_transfer(owner);  // target died with the commit in flight
        }
      });
  network().send(
      owner, t.target, overlay::kHeaderBytes,
      [this, owner, target = t.target, moved, epoch] {
        // At the successor: the shipped zones are installed (the snapshot
        // and write-behind frames precede this one, FIFO). Fix the derived
        // state the zone-local replays skipped: re-propagate child pieces
        // and re-seed the replica chain from the new owner, in whichever
        // form each zone now has there.
        for (const auto& [key, addr] : *moved) {
          propagate_pieces(target, addr);
          reseed_replicas(target, addr, key);
        }
        network().send(target, owner, overlay::kHeaderBytes,
                       [this, owner, moved, epoch] {
          TransferOut& t2 = transfers_out_[owner];
          if (!t2.active || t2.epoch != epoch) return;
          // Route-cache coherence for the moved range (same events a
          // death emits), then splice out of the ring and die. The
          // leaver keeps its zones — it serves events until the splice
          // lands and the copies die with the node.
          for (const auto& [key, addr] : *moved) invalidate_cached_route(key);
          const double handoff = simulator().now() - t2.started_ms;
          ++join_stats_.leaves_completed;
          join_stats_.total_handoff_ms += handoff;
          if (handoff > join_stats_.max_handoff_ms) {
            join_stats_.max_handoff_ms = handoff;
          }
          dht_.leave(owner, [this, owner] {
            const std::uint64_t e = transfers_out_[owner].epoch;
            transfers_out_[owner] = TransferOut{};
            transfers_out_[owner].epoch = e;
          });
        });
      });
}

void HyperSubSystem::abort_transfer(net::HostIndex owner) {
  TransferOut& t = transfers_out_[owner];
  if (!t.active) return;
  const std::uint64_t epoch = t.epoch;
  t = TransferOut{};
  t.epoch = epoch;
  ++join_stats_.joins_aborted;
}

void HyperSubSystem::finish_warming(net::HostIndex joiner) {
  WarmState& ws = warm_[joiner];
  if (!ws.warming) return;
  WarmState done = std::move(ws);
  ws = WarmState{};
  ws.epoch = done.epoch;
  // 1. Install the staged zone snapshots (structure-exact restore).
  for (const auto& frame : done.staged) {
    common::ByteReader r(frame);
    install_transferred_zones(joiner, r);
  }
  // 2. Replay the write-behind batches zone-locally, in capture order.
  for (ZoneOp& op : done.transfer_ops) {
    apply_zone_op(joiner, nodes_[joiner]->primary(), std::move(op),
                  /*cascade=*/false);
  }
  // 3. Fix the derived state the zone-local replays skipped: re-propagate
  //    child pieces (idempotent at children the old owner already updated)
  //    and re-seed the replica chain from the new owner, saturated zones
  //    included.
  for (const auto& [key, addr] : zones_in_order(joiner, /*saturated=*/true)) {
    propagate_pieces(joiner, addr);
    reseed_replicas(joiner, addr, key);
  }
  // 4. Replay the deferred full-path work (zone writes, buffered events)
  //    in arrival order — warming is off, so these now execute for real.
  for (auto& work : done.ops) {
    if (ZoneOp* op = std::get_if<ZoneOp>(&work)) {
      write_zone(joiner, std::move(*op));
    } else {
      const ParkedEvent& ev = std::get<ParkedEvent>(work);
      process_event_message(joiner, ev.ctx, ev.subids, ev.hops, ev.via);
    }
  }
  const std::uint64_t q = done.transfer_ops.size();
  const std::uint64_t w = done.ops.size();
  join_stats_.queued_ops_replayed += q;
  join_stats_.warm_ops_replayed += w;
}

void HyperSubSystem::leave_node(net::HostIndex host) {
  if (!network().alive(host)) return;
  if (transfers_out_[host].active || warm_[host].warming) return;
  const overlay::Peer heir = dht_.heir_of(host);
  if (!heir.valid() || heir.host == host || !network().alive(heir.host)) {
    // No live successor to inherit the state: plain departure.
    if (!dht_.leave(host, {})) crash_node(host);
    return;
  }
  TransferOut& t = transfers_out_[host];
  const std::uint64_t epoch = t.epoch + 1;
  t = TransferOut{};
  t.epoch = epoch;
  t.active = true;
  t.leaving = true;
  t.target = heir.host;
  t.target_id = dht_.id_of(heir.host);
  t.my_id = dht_.id_of(host);
  t.started_ms = simulator().now();
  t.deadline_ms = simulator().now() + kHandoverTimeoutMs;
  std::uint32_t zones = 0;
  auto frame = std::make_shared<std::vector<std::uint8_t>>(
      serialize_moved_zones(host, t, &zones));
  const std::uint64_t bytes = overlay::kHeaderBytes + frame->size();
  join_stats_.transfer_bytes += bytes;  // main context: direct
  join_stats_.zones_transferred += zones;
  // The successor installs immediately (it is not warming): primary copies
  // supersede its replica copies of the same zones. It starts matching them
  // only when the splice makes it owner; until then the leaver serves.
  network().send(host, heir.host, bytes, [this, to = heir.host, frame] {
    common::ByteReader r(*frame);
    install_transferred_zones(to, r);
  });
  schedule_handover_tick(host, epoch);
}

void HyperSubSystem::crash_node(net::HostIndex host) {
  // Abrupt: no handshake. Clear any transfer machinery this host ran.
  {
    TransferOut& t = transfers_out_[host];
    const std::uint64_t e = t.epoch;
    t = TransferOut{};
    t.epoch = e;
  }
  {
    WarmState& ws = warm_[host];
    const std::uint64_t e = ws.epoch;
    ws = WarmState{};
    ws.epoch = e;
  }
  network().kill(host);
}

std::vector<std::uint8_t> HyperSubSystem::snapshot_node(
    net::HostIndex host) const {
  common::ByteWriter w;
  w.u32(common::kWireVersion);
  nodes_[host]->save(w);
  return w.take();
}

void HyperSubSystem::restore_node(net::HostIndex host,
                                  const std::vector<std::uint8_t>& snapshot,
                                  net::HostIndex bootstrap) {
  if (!network().alive(host)) network().revive(host);
  common::ByteReader r(snapshot);
  const std::uint32_t ver = r.u32();
  assert(ver >= 1 && ver <= common::kWireVersion);
  const std::vector<V2Chain> chains = nodes_[host]->restore(r, ver);
  if (ver < 4) adopt_legacy_image(host, chains);
  // Re-splice with no warming: the node resumes from its own disk image —
  // a node whose range drifted while down wants join_node() instead.
  dht_.join(host, bootstrap, {});
}

void HyperSubSystem::restore_node(net::HostIndex host,
                                  const std::vector<std::uint8_t>& snapshot) {
  net::HostIndex bootstrap = overlay::Peer::kInvalidHost;
  for (net::HostIndex h = 0; h < nodes_.size(); ++h) {
    if (h != host && network().alive(h)) {
      bootstrap = h;
      break;
    }
  }
  assert(bootstrap != overlay::Peer::kInvalidHost);
  restore_node(host, snapshot, bootstrap);
}

bool HyperSubSystem::transfer_active() const noexcept {
  for (const auto& t : transfers_out_) {
    if (t.active) return true;
  }
  for (const auto& w : warm_) {
    if (w.warming) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Whole-system checkpointing.

void HyperSubSystem::save_state(common::ByteWriter& w) const {
  // Quiescence contract (see header): simulator drained, finalize_events()
  // called, batches flushed, no transfer session or warming joiner.
  assert(live_.empty());
  assert(!transfer_active());
#ifndef NDEBUG
  for (const auto& b : batches_) assert(b.empty());
#endif
  w.u32(common::kWireVersion);
  w.u32(std::uint32_t(schemes_.size()));
  w.u64(event_seq_);
  w.u64(std::uint64_t(total_subs_));
  w.u64(cover_subid_bytes_saved_);
  w.u64(subid_wire_bytes_);
  // Layer-decision reliability counters (transport stats ride channel_).
  w.u64(rel_.messages_sent);
  w.u64(rel_.acks);
  w.u64(rel_.retries);
  w.u64(rel_.expirations);
  w.u64(rel_.reroutes);
  w.u64(rel_.unmasked_drops);
  w.u64(rel_.duplicates_suppressed);
  w.u64(rel_.truncated_events);
  w.u64(batch_.frames);
  w.u64(batch_.chunks);
  w.u64(batch_.header_bytes_saved);
  w.u64(join_stats_.joins_started);
  w.u64(join_stats_.joins_committed);
  w.u64(join_stats_.joins_aborted);
  w.u64(join_stats_.leaves_completed);
  w.u64(join_stats_.zones_transferred);
  w.u64(join_stats_.transfer_bytes);
  w.u64(join_stats_.queued_ops_replayed);
  w.u64(join_stats_.warm_ops_replayed);
  w.u64(join_stats_.events_buffered);
  w.f64(join_stats_.total_handoff_ms);
  w.f64(join_stats_.max_handoff_ms);
  event_metrics_.save_state(w);
  channel_.save_stats(w);
  for (const auto& c : caches_) c->save_state(w);
  // Built-in sink rows, in delivery order.
  const auto& rows = default_sink_.rows();
  w.u64(rows.size());
  for (const Delivery& d : rows) {
    w.u64(d.event_seq);
    w.u64(std::uint64_t(d.subscriber));
    w.u32(d.iid);
    w.u32(std::uint32_t(d.hops));
    w.f64(d.latency_ms);
  }
  // Per-host dedup sets, iterated in sorted-seq order for stable bytes.
  for (const auto& m : delivered_subs_) {
    w.u32(std::uint32_t(m.size()));
    std::vector<std::uint64_t> seqs;
    seqs.reserve(m.size());
    for (const auto& [seq, subs] : m) seqs.push_back(seq);
    std::sort(seqs.begin(), seqs.end());
    for (const std::uint64_t seq : seqs) {
      const auto& subs = m.at(seq);
      w.u64(seq);
      w.u32(std::uint32_t(subs.size()));
      for (const auto& [id, iid] : subs) {
        w.u64(id);
        w.u32(iid);
      }
    }
  }
  for (const auto& nd : nodes_) nd->save(w);
}

void HyperSubSystem::restore_state(common::ByteReader& r) {
  const std::uint32_t ver = r.u32();
  assert(ver >= 1 && ver <= common::kWireVersion);
  const std::uint32_t nschemes = r.u32();
  assert(nschemes == schemes_.size());
  (void)nschemes;
  event_seq_ = r.u64();
  total_subs_ = std::size_t(r.u64());
  cover_subid_bytes_saved_ = r.u64();
  subid_wire_bytes_ = r.u64();
  rel_ = metrics::ReliabilityCounters{};
  rel_.messages_sent = r.u64();
  rel_.acks = r.u64();
  rel_.retries = r.u64();
  rel_.expirations = r.u64();
  rel_.reroutes = r.u64();
  rel_.unmasked_drops = r.u64();
  rel_.duplicates_suppressed = r.u64();
  rel_.truncated_events = r.u64();
  batch_ = metrics::BatchCounters{};
  batch_.frames = r.u64();
  batch_.chunks = r.u64();
  batch_.header_bytes_saved = r.u64();
  join_stats_ = JoinStats{};
  join_stats_.joins_started = r.u64();
  join_stats_.joins_committed = r.u64();
  join_stats_.joins_aborted = r.u64();
  join_stats_.leaves_completed = r.u64();
  join_stats_.zones_transferred = r.u64();
  join_stats_.transfer_bytes = r.u64();
  join_stats_.queued_ops_replayed = r.u64();
  join_stats_.warm_ops_replayed = r.u64();
  join_stats_.events_buffered = r.u64();
  join_stats_.total_handoff_ms = r.f64();
  join_stats_.max_handoff_ms = r.f64();
  event_metrics_.restore_state(r);
  channel_.restore_stats(r);
  for (auto& c : caches_) c->restore_state(r);
  default_sink_.reset();
  const std::uint64_t nrows = r.u64();
  for (std::uint64_t i = 0; i < nrows; ++i) {
    Delivery d;
    d.event_seq = r.u64();
    d.subscriber = net::HostIndex(r.u64());
    d.iid = r.u32();
    d.hops = int(r.u32());
    d.latency_ms = r.f64();
    default_sink_.on_delivery(d);
  }
  for (auto& m : delivered_subs_) {
    m.clear();
    const std::uint32_t nseq = r.u32();
    for (std::uint32_t i = 0; i < nseq; ++i) {
      const std::uint64_t seq = r.u64();
      auto& subs = m[seq];
      const std::uint32_t nsub = r.u32();
      for (std::uint32_t j = 0; j < nsub; ++j) {
        const Id id = r.u64();
        const std::uint32_t iid = r.u32();
        subs.emplace(id, iid);
      }
    }
  }
  for (net::HostIndex h = 0; h < nodes_.size(); ++h) {
    const std::vector<V2Chain> chains = nodes_[h]->restore(r, ver);
    if (ver < 4) adopt_legacy_image(h, chains);
  }
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
