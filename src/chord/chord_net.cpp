#include "chord/chord_net.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <thread>

namespace hypersub::chord {

ChordNet::ChordNet(net::Network& net, const Params& params)
    : net_(net),
      params_(params),
      route_channel_(net, {params.rpc_timeout_ms, params.route_backoff,
                           params.route_retries, kHeaderBytes}) {
  Rng rng(params.seed);
  const auto ids = random_ids(net.size(), rng);
  nodes_.reserve(net.size());
  for (net::HostIndex h = 0; h < net.size(); ++h) {
    nodes_.push_back(
        std::make_unique<ChordNode>(ids[h], h, params.succ_list_len));
    host_by_id_[ids[h]] = h;
  }
  next_finger_.assign(net.size(), 0);
  next_probe_.assign(net.size(), 0);
  maintaining_.assign(net.size(), false);
  last_heard_.resize(net.size());
}

void ChordNet::note_contact(net::HostIndex at, Id peer) {
  if (!params_.piggyback_maintenance) return;
  last_heard_[at][peer] = net_.simulator().now();
}

bool ChordNet::recently_heard(net::HostIndex h, Id peer) const {
  if (!params_.piggyback_maintenance) return false;
  const auto it = last_heard_[h].find(peer);
  return it != last_heard_[h].end() &&
         net_.simulator().now() - it->second <= params_.stabilize_period_ms;
}

void ChordNet::liveness_ping(net::HostIndex h, NodeRef peer) {
  ++pings_sent_;
  auto done = std::make_shared<bool>(false);
  net_.send(h, peer.host, kHeaderBytes, [this, h, peer, done] {
    net_.send(peer.host, h, kHeaderBytes, [this, h, peer, done] {
      *done = true;
      note_contact(h, peer.id);
    });
  });
  net_.simulator().schedule(params_.rpc_timeout_ms, [this, h, peer, done] {
    if (*done || !net_.alive(h)) return;
    with_pred_watch(h, [&](ChordNode& nd) { nd.remove_peer(peer.id); });
  });
}

void ChordNet::probe_finger_liveness(net::HostIndex h) {
  ChordNode& nd = *nodes_[h];
  // Round-robin over fingers; skip invalid ones and (with piggybacking)
  // peers recently heard from via application traffic.
  for (int attempts = 0; attempts < kIdBits; ++attempts) {
    const int i = next_probe_[h];
    next_probe_[h] = (i + 1) % kIdBits;
    const NodeRef f = nd.finger(i);
    if (!f.valid() || f.id == nd.id()) continue;
    if (recently_heard(h, f.id)) {
      ++pings_saved_;
      return;
    }
    liveness_ping(h, f);
    return;
  }
}

std::vector<NodeRef> ChordNet::oracle_ring() const {
  std::vector<NodeRef> ring;
  ring.reserve(nodes_.size());
  for (const auto& n : nodes_) {
    if (net_.alive(n->host())) ring.push_back(n->self());
  }
  std::sort(ring.begin(), ring.end(),
            [](const NodeRef& a, const NodeRef& b) { return a.id < b.id; });
  return ring;
}

NodeRef ChordNet::oracle_successor(Id key) const {
  const auto ring = oracle_ring();
  assert(!ring.empty());
  std::vector<Id> ids;
  ids.reserve(ring.size());
  for (const auto& n : ring) ids.push_back(n.id);
  return ring[successor_index(ids, key)];
}

void ChordNet::oracle_build(unsigned threads) {
  const auto ring = oracle_ring();
  const std::size_t n = ring.size();
  assert(n >= 1);
  std::vector<Id> ids;
  ids.reserve(n);
  for (const auto& r : ring) ids.push_back(r.id);

  // Compute phase: the whole routing state of every node is a pure function
  // of the sorted ring and the (immutable) topology, so it shards cleanly
  // over contiguous ring ranges. The PNS latency scans — n * 64 *
  // pns_candidates latency() calls — are what makes construction expensive
  // at scale; they all happen here.
  struct Built {
    NodeRef pred;
    NodeRef succ;
    std::vector<NodeRef> rest;
    std::array<NodeRef, kIdBits> fingers{};
  };
  std::vector<Built> built(n);
  const auto compute = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const ChordNode& nd = *nodes_[ring[i].host];
      Built& b = built[i];
      // Predecessor and successor list straight from ring order.
      b.pred = ring[(i + n - 1) % n];
      b.succ = ring[(i + 1) % n];
      for (std::size_t k = 2; k <= params_.succ_list_len && k < n + 1; ++k) {
        b.rest.push_back(ring[(i + k) % n]);
      }
      // Fingers with optional PNS: candidates are the first pns_candidates
      // nodes clockwise from the finger start that stay within
      // [start, next_start); pick the closest by network latency.
      for (int f = 0; f < kIdBits; ++f) {
        const Id start = ring::finger_start(nd.id(), f);
        const Id next_start = ring::finger_start(nd.id(), (f + 1) % kIdBits);
        const std::size_t first = successor_index(ids, start);
        NodeRef chosen = ring[first];
        if (params_.pns) {
          double best = net_.topology().latency(nd.host(), chosen.host);
          std::size_t idx = first;
          for (std::size_t c = 1; c < params_.pns_candidates; ++c) {
            idx = (idx + 1) % n;
            const NodeRef& cand = ring[idx];
            // Stop once candidates leave the finger's interval (for f == 63
            // the interval is the half ring back to the node itself).
            const bool in_range =
                f == kIdBits - 1
                    ? ring::in_closed_open(cand.id, start, nd.id())
                    : ring::in_closed_open(cand.id, start, next_start);
            if (!in_range) break;
            const double lat = net_.topology().latency(nd.host(), cand.host);
            if (lat < best) {
              best = lat;
              chosen = cand;
            }
          }
        }
        b.fingers[std::size_t(f)] = chosen;
      }
    }
  };
  const std::size_t workers =
      std::min<std::size_t>(std::max(1u, threads), n);
  if (workers <= 1) {
    compute(0, n);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back(
          [&compute, lo = n * w / workers, hi = n * (w + 1) / workers] {
            compute(lo, hi);
          });
    }
    for (auto& th : pool) th.join();
  }

  // Apply phase: sequential in ring order, so ownership notifications (and
  // any listener side effects) fire in a thread-count-independent order.
  for (std::size_t i = 0; i < n; ++i) {
    ChordNode& nd = *nodes_[ring[i].host];
    Built& b = built[i];
    with_pred_watch(ring[i].host,
                    [&](ChordNode& me) { me.set_predecessor(b.pred); });
    nd.adopt_successor_list(b.succ, std::move(b.rest));
    for (int f = 0; f < kIdBits; ++f) {
      nd.set_finger(f, b.fingers[std::size_t(f)]);
    }
  }
}

NodeRef ChordNet::next_hop(net::HostIndex h, Id key) const {
  const ChordNode& nd = *nodes_[h];
  const NodeRef succ = nd.successor();
  if (succ.valid() && ring::in_open_closed(key, nd.id(), succ.id)) {
    return succ;
  }
  NodeRef next = nd.closest_preceding(key);
  if (!next.valid() || next.id == nd.id()) next = succ;
  return next;
}

// ---------------------------------------------------------------------------
// Lookup routing
// ---------------------------------------------------------------------------

void ChordNet::route(net::HostIndex from, Id key, std::uint64_t extra_bytes,
                     RouteCallback cb) {
  auto shared_cb = std::make_shared<RouteCallback>(std::move(cb));
  // Tracing: adopt the caller's parked context, if any (cleared by the
  // read, so an untraced route never inherits a stale one).
  trace::TraceCtx tctx;
  if (auto* tr = trace::maybe(tracer_)) tctx = tr->take_ambient();
  route_step(from, key, extra_bytes, 0, net_.simulator().now(),
             std::move(shared_cb), tctx);
}

void ChordNet::route_step(net::HostIndex at, Id key,
                          std::uint64_t extra_bytes, int hops,
                          double issued_at,
                          std::shared_ptr<RouteCallback> cb,
                          trace::TraceCtx tctx) {
  ChordNode& nd = *nodes_[at];
  if (nd.owns(key)) {
    RouteResult r;
    r.owner = nd.self();
    r.hops = hops;
    r.latency_ms = net_.simulator().now() - issued_at;
    // Park the arrival context so the route callback (which runs
    // synchronously here) can parent its own spans under the last hop;
    // clear it afterwards in case the callback is not trace-aware.
    if (auto* tr = trace::maybe(tracer_); tr && tctx.active()) {
      tr->set_ambient(tctx);
      (*cb)(r);
      tr->take_ambient();
      return;
    }
    (*cb)(r);
    return;
  }
  if (hops >= params_.max_route_hops) {
    ++route_drops_;
    return;
  }
  // Final hop: key lies between us and our successor.
  NodeRef next;
  const NodeRef succ = nd.successor();
  if (succ.valid() && ring::in_open_closed(key, nd.id(), succ.id)) {
    next = succ;
  } else {
    next = nd.closest_preceding(key);
    if (!next.valid() || next.id == nd.id()) next = succ;
  }
  if (!next.valid()) {  // isolated node: drop
    if (params_.reliable_routing) ++route_drops_;
    return;
  }
  // One route-hop span per forwarded lookup message: opened at the sender,
  // closed on arrival. The chain of hop spans is the lookup's causal path.
  trace::SpanId hop_span = trace::kNoSpan;
  if (auto* tr = trace::maybe(tracer_); tr && tctx.active()) {
    hop_span = tr->begin(tctx.trace, tctx.parent, trace::SpanKind::kRouteHop,
                         at, net_.simulator().now(),
                         std::uint64_t(hops + 1), std::uint64_t(next.host));
    // Span cap hit: the rest of this trace is lost anyway; deactivate so
    // downstream end() calls cannot close an unrelated older span.
    if (hop_span != trace::kNoSpan) tctx.parent = hop_span;
    else tctx = trace::TraceCtx{};
  }
  if (params_.reliable_routing) {
    send_route_hop(at, next, key, extra_bytes, hops, issued_at, cb,
                   overlay::Peer::kInvalidHost, tctx);
    return;
  }
  const std::uint64_t bytes = kHeaderBytes + kKeyBytes + extra_bytes;
  net_.send(at, next.host, bytes,
            [this, to = next.host, key, extra_bytes, hops, issued_at, cb,
             tctx, hop_span] {
              if (auto* tr = trace::maybe(tracer_)) {
                tr->end(hop_span, net_.simulator().now());
              }
              route_step(to, key, extra_bytes, hops + 1, issued_at, cb, tctx);
            });
}

void ChordNet::send_route_hop(net::HostIndex at, NodeRef next, Id key,
                              std::uint64_t extra_bytes, int hops,
                              double issued_at,
                              std::shared_ptr<RouteCallback> cb,
                              net::HostIndex failed, trace::TraceCtx tctx) {
  const std::uint64_t bytes = kHeaderBytes + kKeyBytes + extra_bytes +
                              (failed != overlay::Peer::kInvalidHost
                                   ? kNodeRefBytes
                                   : 0);
  route_channel_.send(
      at, next.host, bytes,
      [this, at, to = next.host, key, extra_bytes, hops, issued_at, cb,
       failed, tctx] {
        // Piggybacked failure gossip: the sender detoured around `failed`
        // to reach us, so we are the heir of its range and the sender is a
        // predecessor candidate for it.
        if (failed != overlay::Peer::kInvalidHost) {
          note_peer_failure(to, failed, at);
        }
        if (auto* tr = trace::maybe(tracer_)) {
          tr->end(tctx.parent, net_.simulator().now());
        }
        route_step(to, key, extra_bytes, hops + 1, issued_at, cb, tctx);
      },
      [this, at, to = next.host, key, extra_bytes, hops, issued_at, cb,
       tctx]() mutable {
        // All retransmissions expired: the next hop is dead. Drop it from
        // our routing state and detour through the recomputed hop,
        // gossiping the failure to it.
        note_peer_failure(at, to);
        const NodeRef retry = next_hop(at, key);
        if (!retry.valid() || retry.host == to) {
          ++route_drops_;
          return;
        }
        ++route_reroutes_;
        // The detour is a fresh hop span under the expired one (the
        // channel already recorded the expire span there).
        if (auto* tr = trace::maybe(tracer_); tr && tctx.active()) {
          const double now = net_.simulator().now();
          tr->end(tctx.parent, now);
          const trace::SpanId detour = tr->begin(
              tctx.trace, tctx.parent, trace::SpanKind::kReroute, at, now,
              std::uint64_t(hops + 1), std::uint64_t(retry.host));
          if (detour != trace::kNoSpan) tctx.parent = detour;
          else tctx = trace::TraceCtx{};
        }
        send_route_hop(at, retry, key, extra_bytes, hops, issued_at, cb, to,
                       tctx);
      },
      tctx);
}

void ChordNet::note_peer_failure(net::HostIndex at, net::HostIndex failed,
                                 net::HostIndex via) {
  if (at == failed) return;
  with_pred_watch(at, [&](ChordNode& nd) {
    nd.remove_peer(nodes_[failed]->id());
    if (via == overlay::Peer::kInvalidHost || via == at) return;
    // The gossiping peer detoured around our dead predecessor-side
    // neighbor; adopt it as predecessor candidate under the standard
    // notify guard so owns() covers the inherited range again.
    const NodeRef cand = nodes_[via]->self();
    if (cand.id == nd.id()) return;
    const NodeRef cur = nd.predecessor();
    if (!cur.valid() || cur.id == nd.id() ||
        ring::in_open(cand.id, cur.id, nd.id())) {
      nd.set_predecessor(cand);
    }
  });
}

metrics::ReliabilityCounters ChordNet::route_reliability() const {
  const net::ReliableChannel::Stats& s = route_channel_.stats();
  metrics::ReliabilityCounters c;
  c.messages_sent = s.sent;
  c.acks = s.acked;
  c.retries = s.retries;
  c.expirations = s.expired;
  c.duplicates_suppressed = s.duplicates_suppressed;
  c.reroutes = route_reroutes_;
  c.unmasked_drops = route_drops_;
  return c;
}

// ---------------------------------------------------------------------------
// Maintenance protocol
// ---------------------------------------------------------------------------

void ChordNet::get_state(
    net::HostIndex from, net::HostIndex to,
    std::function<void(NodeRef, std::vector<NodeRef>)> ok,
    std::function<void()> fail) {
  auto done = std::make_shared<bool>(false);
  const std::uint64_t req = kHeaderBytes;
  net_.send(from, to, req, [this, from, to, done, ok = std::move(ok)] {
    // Server side: reply with predecessor + successor list.
    ChordNode& peer = *nodes_[to];
    const NodeRef pred = peer.predecessor();
    const std::vector<NodeRef> slist = peer.successor_list();
    const std::uint64_t reply =
        kHeaderBytes + kNodeRefBytes * (1 + slist.size());
    net_.send(to, from, reply, [done, ok = std::move(ok), pred, slist] {
      if (*done) return;
      *done = true;
      ok(pred, slist);
    });
  });
  net_.simulator().schedule(params_.rpc_timeout_ms,
                            [done, fail = std::move(fail)] {
                              if (*done) return;
                              *done = true;
                              if (fail) fail();
                            });
}

void ChordNet::start_maintenance() {
  maintenance_stopped_ = false;
  Rng rng(params_.seed ^ 0x5741494eULL);
  for (net::HostIndex h = 0; h < nodes_.size(); ++h) {
    if (!net_.alive(h) || maintaining_[h]) continue;
    schedule_tick(h, rng.uniform(0.0, params_.stabilize_period_ms));
  }
}

void ChordNet::schedule_tick(net::HostIndex h, double delay) {
  maintaining_[h] = true;
  net_.simulator().schedule(delay, [this, h] {
    if (maintenance_stopped_ || !net_.alive(h)) {
      maintaining_[h] = false;
      return;
    }
    stabilize(h);
    fix_next_finger(h);
    check_predecessor(h);
    if (params_.probe_fingers) probe_finger_liveness(h);
    schedule_tick(h, params_.stabilize_period_ms);
  });
}

void ChordNet::stabilize(net::HostIndex h) {
  ChordNode& nd = *nodes_[h];
  const NodeRef succ = nd.successor();
  if (!succ.valid()) return;
  get_state(
      h, succ.host,
      [this, h, succ](NodeRef pred, std::vector<NodeRef> slist) {
        ChordNode& me = *nodes_[h];
        NodeRef target = succ;
        // Classic Chord treats the degenerate single-node interval (n, n)
        // as the whole ring during stabilization, so a freshly bootstrapped
        // node adopts its first peer.
        const bool degenerate = succ.id == me.id();
        if (pred.valid() && pred.id != me.id() &&
            (degenerate || ring::in_open(pred.id, me.id(), succ.id))) {
          // A closer successor appeared between us and our successor.
          target = pred;
          me.set_successor(target);
        } else {
          me.adopt_successor_list(succ, slist);
        }
        // notify(target): "I believe I am your predecessor".
        net_.send(h, target.host, kHeaderBytes + kNodeRefBytes,
                  [this, h, to = target.host] {
                    with_pred_watch(to, [&](ChordNode& peer) {
                      const NodeRef cand = nodes_[h]->self();
                      if (cand.id == peer.id()) return;
                      const NodeRef cur = peer.predecessor();
                      if (!cur.valid() || cur.id == peer.id() ||
                          ring::in_open(cand.id, cur.id, peer.id())) {
                        peer.set_predecessor(cand);
                      }
                    });
                  });
      },
      [this, h, succ] {
        // Successor unresponsive: drop it and fail over to the next backup.
        with_pred_watch(h, [&](ChordNode& me) { me.remove_peer(succ.id); });
      });
}

void ChordNet::fix_next_finger(net::HostIndex h) {
  ChordNode& nd = *nodes_[h];
  const int i = next_finger_[h];
  next_finger_[h] = (i + 1) % kIdBits;
  const Id start = ring::finger_start(nd.id(), i);
  route(h, start, 0, [this, h, i, start](const RouteResult& r) {
    // This callback runs at the key's owner, not at h; every write to h's
    // finger table is applied as an event of its own.
    if (!net_.alive(h)) return;
    if (!params_.pns) {
      net_.simulator().schedule(0.0, [this, h, i, owner = r.owner] {
        if (net_.alive(h)) nodes_[h]->set_finger(i, owner);
      });
      return;
    }
    // PNS refinement: fetch the owner's successor list and keep the
    // lowest-latency candidate still inside the finger interval.
    get_state(
        h, r.owner.host,
        [this, h, i, start, owner = r.owner](NodeRef,
                                             std::vector<NodeRef> slist) {
          if (!net_.alive(h)) return;
          ChordNode& me2 = *nodes_[h];
          const Id next_start =
              ring::finger_start(me2.id(), (i + 1) % kIdBits);
          NodeRef best = owner;
          double best_lat = net_.topology().latency(h, owner.host);
          for (const auto& cand : slist) {
            if (!cand.valid()) continue;
            const bool in_range =
                i == kIdBits - 1
                    ? ring::in_closed_open(cand.id, start, me2.id())
                    : ring::in_closed_open(cand.id, start, next_start);
            if (!in_range) continue;
            const double lat = net_.topology().latency(h, cand.host);
            if (lat < best_lat) {
              best_lat = lat;
              best = cand;
            }
          }
          me2.set_finger(i, best);
        },
        [this, h, i, owner = r.owner] {
          if (net_.alive(h)) nodes_[h]->set_finger(i, owner);
        });
  });
}

void ChordNet::check_predecessor(net::HostIndex h) {
  ChordNode& nd = *nodes_[h];
  const NodeRef pred = nd.predecessor();
  if (!pred.valid()) return;
  if (recently_heard(h, pred.id)) {
    ++pings_saved_;
    return;
  }
  ++pings_sent_;
  auto done = std::make_shared<bool>(false);
  net_.send(h, pred.host, kHeaderBytes, [this, h, pred, done] {
    // Ping reached a live predecessor; pong back.
    net_.send(pred.host, h, kHeaderBytes, [this, h, pred, done] {
      *done = true;
      note_contact(h, pred.id);
    });
  });
  net_.simulator().schedule(params_.rpc_timeout_ms, [this, h, pred, done] {
    if (*done || !net_.alive(h)) return;
    with_pred_watch(h, [&](ChordNode& me) {
      if (me.predecessor() == pred) me.clear_predecessor();
    });
  });
}

bool ChordNet::join(net::HostIndex host, net::HostIndex bootstrap,
                    std::function<void()> on_joined) {
  assert(net_.alive(host));
  ChordNode& nd = *nodes_[host];
  // A rejoining node must not route through its previous life's view:
  // stale successors/fingers could claim ownership or shortcut lookups
  // around the very owner it needs to fetch state from.
  with_pred_watch(host, [](ChordNode& me) { me.reset_routing_state(); });
  route(bootstrap, nd.id(), 0,
        [this, host, on_joined = std::move(on_joined)](const RouteResult& r) {
          // Runs at the owner; apply the join result as an event of its
          // own.
          net_.simulator().schedule(0.0, [this, host, owner = r.owner,
                                          on_joined = std::move(on_joined)] {
            if (!net_.alive(host)) return;
            nodes_[host]->set_successor(owner);
            if (!maintaining_[host]) schedule_tick(host, 0.0);
            if (on_joined) on_joined();
          });
        });
  return true;
}

bool ChordNet::leave(net::HostIndex host, std::function<void()> on_left) {
  if (!net_.alive(host)) return false;
  ChordNode& nd = *nodes_[host];
  const NodeRef pred = nd.predecessor();
  const NodeRef succ = nd.successor();
  const bool have_succ =
      succ.valid() && succ.id != nd.id() && net_.alive(succ.host);
  const bool have_pred =
      pred.valid() && pred.id != nd.id() && net_.alive(pred.host);

  auto pending = std::make_shared<int>((have_succ ? 1 : 0) +
                                       (have_pred ? 1 : 0));
  auto finish = std::make_shared<std::function<void()>>(std::move(on_left));
  const auto step = [this, host, pending, finish] {
    if (--*pending > 0) return;
    // Depart only after both splice messages landed.
    net_.simulator().schedule(0.0, [this, host, finish] {
      if (net_.alive(host)) net_.kill(host);
      if (*finish) (*finish)();
    });
  };

  if (have_succ) {
    // "I am leaving; my predecessor is yours now." Adopting it moves the
    // successor's ownership boundary — with_pred_watch fires the overlay
    // ownership listener, exactly like a death-driven flip would.
    net_.send(host, succ.host, kHeaderBytes + 2 * kNodeRefBytes,
              [this, host, to = succ.host, pred, step] {
                with_pred_watch(to, [&](ChordNode& peer) {
                  const Id leaver = nodes_[host]->id();
                  const NodeRef cur = peer.predecessor();
                  if (cur.valid() && cur.id == leaver) {
                    if (pred.valid() && pred.id != leaver) {
                      peer.set_predecessor(pred);
                    } else {
                      peer.clear_predecessor();
                    }
                  }
                  peer.remove_peer(leaver);
                });
                step();
              });
  }
  if (have_pred) {
    // "Splice past me": the predecessor adopts our successor list.
    const std::vector<NodeRef> slist = nd.successor_list();
    net_.send(host, pred.host,
              kHeaderBytes + kNodeRefBytes * (1 + slist.size()),
              [this, host, to = pred.host, succ, slist, have_succ, step] {
                ChordNode& peer = *nodes_[to];
                const Id leaver = nodes_[host]->id();
                if (have_succ) {
                  const std::vector<NodeRef> rest(
                      slist.begin() + 1, slist.end());
                  peer.adopt_successor_list(succ, rest);
                }
                peer.remove_peer(leaver);
                step();
              });
  }
  if (*pending == 0) {
    // Isolated node: nothing to splice, just depart.
    net_.kill(host);
    if (*finish) (*finish)();
  }
  return true;
}

void ChordNet::fail(net::HostIndex host) { net_.kill(host); }

void ChordNet::save_state(common::ByteWriter& w) const {
  const auto save_ref = [&w](const NodeRef& n) {
    w.u64(n.id);
    w.u64(std::uint64_t(n.host));
    w.boolean(n.valid());
  };
  w.u32(std::uint32_t(nodes_.size()));
  for (net::HostIndex h = 0; h < nodes_.size(); ++h) {
    const ChordNode& nd = *nodes_[h];
    w.u64(nd.id());
    save_ref(nd.predecessor());
    const auto& sl = nd.successor_list();
    w.u32(std::uint32_t(sl.size()));
    for (const NodeRef& s : sl) save_ref(s);
    for (int i = 0; i < kIdBits; ++i) save_ref(nd.finger(i));
    w.u32(std::uint32_t(next_finger_[h]));
    w.u32(std::uint32_t(next_probe_[h]));
    // Piggyback liveness evidence, sorted for deterministic bytes.
    std::vector<std::pair<Id, double>> heard(last_heard_[h].begin(),
                                             last_heard_[h].end());
    std::sort(heard.begin(), heard.end());
    w.u32(std::uint32_t(heard.size()));
    for (const auto& [peer, at] : heard) {
      w.u64(peer);
      w.f64(at);
    }
  }
  w.u64(route_reroutes_);
  w.u64(route_drops_);
  w.u64(pings_sent_);
  w.u64(pings_saved_);
  route_channel_.save_stats(w);
}

void ChordNet::restore_state(common::ByteReader& r) {
  const auto load_ref = [&r] {
    NodeRef n;
    n.id = r.u64();
    n.host = net::HostIndex(r.u64());
    if (!r.boolean()) n = NodeRef{};
    return n;
  };
  const std::uint32_t n = r.u32();
  assert(n == nodes_.size());
  (void)n;
  for (net::HostIndex h = 0; h < nodes_.size(); ++h) {
    ChordNode& nd = *nodes_[h];
    const Id id = r.u64();
    assert(id == nd.id());  // ids are ctor-deterministic from the seed
    (void)id;
    nd.reset_routing_state();
    nd.set_predecessor(load_ref());
    const std::uint32_t n_succ = r.u32();
    std::vector<NodeRef> sl;
    sl.reserve(n_succ);
    for (std::uint32_t i = 0; i < n_succ; ++i) sl.push_back(load_ref());
    if (!sl.empty()) {
      nd.adopt_successor_list(sl.front(),
                              {sl.begin() + 1, sl.end()});
    }
    for (int i = 0; i < kIdBits; ++i) nd.set_finger(i, load_ref());
    next_finger_[h] = int(r.u32());
    next_probe_[h] = int(r.u32());
    last_heard_[h].clear();
    const std::uint32_t n_heard = r.u32();
    for (std::uint32_t i = 0; i < n_heard; ++i) {
      const Id peer = r.u64();
      last_heard_[h][peer] = r.f64();
    }
  }
  route_reroutes_ = r.u64();
  route_drops_ = r.u64();
  pings_sent_ = r.u64();
  pings_saved_ = r.u64();
  route_channel_.restore_stats(r);
}

void ChordNet::maintenance_round() {
  for (net::HostIndex h = 0; h < nodes_.size(); ++h) {
    if (!net_.alive(h)) continue;
    stabilize(h);
    fix_next_finger(h);
    check_predecessor(h);
  }
  // Let the round's messages drain plus timeouts fire.
  net_.simulator().run_until(net_.simulator().now() +
                             2.0 * params_.rpc_timeout_ms);
}

}  // namespace hypersub::chord
