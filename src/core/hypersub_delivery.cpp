#include "core/hypersub_system.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

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

/// End of the next-hop group of a sorted Routed list that starts at `i`.
template <class R>
std::size_t group_end(const std::vector<R>& routed, std::size_t i) {
  std::size_t j = i;
  while (j < routed.size() && routed[j].host == routed[i].host) ++j;
  return j;
}

}  // namespace

// ---------------------------------------------------------------------------
// Event publication + delivery (Alg. 4 + Alg. 5)
// ---------------------------------------------------------------------------

std::uint64_t HyperSubSystem::publish(net::HostIndex publisher,
                                      std::uint32_t scheme,
                                      pubsub::Event event) {
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
    // The publisher-local pass is an event of its own, like every other
    // event message.
    simulator().schedule(0.0, [this, publisher, ctx = std::move(ctx),
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
          sink_->on_delivery(Delivery{ctx->seq, host, subid.iid, hops, lat});
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
  sys->receive_frame(to, sender, frame);
}

void HyperSubSystem::receive_frame(net::HostIndex to, Id sender,
                                   Frame& frame) {
  // §6 piggyback: event traffic doubles as liveness evidence for the DHT
  // layer (no-op unless enabled).
  dht_.note_app_contact(to, sender);
  if (auto* tr = trace::maybe(tracer_)) {
    const double now = simulator().now();
    for (const FrameChunk& c : frame) tr->end(c.fwd_span, now);
  }
  for (FrameChunk& c : frame) {
    process_event_message(to, c.ctx, c.subids(), c.hops + 1, c.fwd_span);
    // Consumed: if a reliable frame's ack still expires (it arrives after
    // the deadline), the reroute must find nothing to resend.
    c.n = 0;
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
        receive_frame(to, sender, *shared);
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

}  // namespace hypersub::core
