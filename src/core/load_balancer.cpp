#include "core/load_balancer.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

namespace hypersub::core {

namespace {

/// Wire cost of one migrated subscription: subid + full-space rectangle.
std::uint64_t sub_bytes(std::size_t dims) { return kSubIdBytes + 16 * dims; }

/// In-flight state of one node's probe round.
struct ProbeRound {
  std::vector<overlay::Peer> targets;  // probed nodes
  std::vector<std::size_t> loads;       // replies, same order; SIZE_MAX=none
  std::size_t pending = 0;
  bool done = false;
};

}  // namespace

LoadBalancer::LoadBalancer(HyperSubSystem& sys, Config cfg)
    : sys_(sys), cfg_(cfg), ticking_(sys.overlay().size(), false) {
  assert(cfg_.probe_level >= 1);
}

void LoadBalancer::start() {
  stopped_ = false;
  Rng rng(0x4c4241ULL);  // staggering only
  for (net::HostIndex h = 0; h < sys_.overlay().size(); ++h) {
    if (!sys_.network().alive(h) || ticking_[h]) continue;
    schedule_tick(h, rng.uniform(0.0, cfg_.period_ms));
  }
}

void LoadBalancer::schedule_tick(net::HostIndex h, double delay) {
  ticking_[h] = true;
  sys_.simulator().schedule(delay, [this, h] {
    if (stopped_ || !sys_.network().alive(h)) {
      ticking_[h] = false;
      return;
    }
    tick(h);
    schedule_tick(h, cfg_.period_ms);
  });
}

void LoadBalancer::run_round() {
  for (net::HostIndex h = 0; h < sys_.overlay().size(); ++h) {
    if (sys_.network().alive(h)) tick(h);
  }
  sys_.simulator().run();
}

void LoadBalancer::tick(net::HostIndex h) { probe_and_balance(h); }

void LoadBalancer::probe_and_balance(net::HostIndex h) {
  // Sampling set: overlay neighbors; with probe_level >= 2 their neighbors
  // are added when replies come back (one extra probe wave).
  auto round = std::make_shared<ProbeRound>();
  auto add_target = [round, h, this](const overlay::Peer& n) {
    if (!n.valid() || n.host == h) return false;
    for (const auto& t : round->targets) {
      if (t.id == n.id) return false;
    }
    round->targets.push_back(n);
    round->loads.push_back(~std::size_t{0});
    return true;
  };

  auto finalize = [this, h, round] {
    if (round->done) return;
    round->done = true;
    // Average load over responding neighbors plus self: the probing node
    // is part of its own neighborhood, and with tiny samples excluding it
    // understates the average enough to trigger spurious migrations.
    const std::size_t my_load = sys_.node(h).load();
    double sum = double(my_load);
    std::size_t n = 1;
    std::vector<std::pair<std::size_t, overlay::Peer>> responders;
    for (std::size_t i = 0; i < round->targets.size(); ++i) {
      if (round->loads[i] == ~std::size_t{0}) continue;
      sum += double(round->loads[i]);
      ++n;
      responders.emplace_back(round->loads[i], round->targets[i]);
    }
    if (responders.empty()) return;
    const double avg = sum / double(n);
    if (double(my_load) <= avg * (1.0 + cfg_.delta)) return;
    if (my_load < cfg_.min_load) return;
    // Acceptors: lightly loaded responders, lightest first, capped at k.
    std::sort(responders.begin(), responders.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<overlay::Peer> acceptors;
    for (const auto& [load, ref] : responders) {
      if (double(load) >= avg) break;
      acceptors.push_back(ref);
      if (acceptors.size() >= cfg_.max_acceptors) break;
    }
    if (!acceptors.empty()) migrate(h, std::move(acceptors));
  };

  // Wave 1: direct neighbors.
  const auto neighbors = sys_.overlay().neighbors(h);
  std::vector<overlay::Peer> wave;
  for (const auto& nb : neighbors) {
    if (add_target(nb)) wave.push_back(nb);
  }
  if (wave.empty()) return;

  const bool deep = cfg_.probe_level >= 2;
  round->pending = wave.size();
  for (const auto& target : wave) {
    // Probe: request load (and, when probing deep, the peer's neighbors).
    sys_.network().send(
        h, target.host, overlay::kHeaderBytes,
        [this, h, target, round, deep, add_target, finalize] {
          const std::size_t peer_load = sys_.node(target.host).load();
          std::vector<overlay::Peer> peer_neighbors;
          if (deep) {
            peer_neighbors = sys_.overlay().neighbors(target.host);
          }
          const std::uint64_t reply_bytes =
              overlay::kHeaderBytes + 8 +
              overlay::kNodeRefBytes * peer_neighbors.size();
          sys_.network().send(
              target.host, h, reply_bytes,
              [this, h, target, round, peer_load, peer_neighbors, add_target,
               finalize] {
                if (round->done) return;
                for (std::size_t i = 0; i < round->targets.size(); ++i) {
                  if (round->targets[i].id == target.id) {
                    round->loads[i] = peer_load;
                    break;
                  }
                }
                // Wave 2: probe the second-level nodes for load only.
                for (const auto& nn : peer_neighbors) {
                  if (!add_target(nn)) continue;
                  ++round->pending;
                  sys_.network().send(
                      h, nn.host, overlay::kHeaderBytes,
                      [this, h, nn, round, finalize] {
                        const std::size_t l2 = sys_.node(nn.host).load();
                        sys_.network().send(
                            nn.host, h, overlay::kHeaderBytes + 8,
                            [round, nn, l2, finalize] {
                              if (round->done) return;
                              for (std::size_t i = 0;
                                   i < round->targets.size(); ++i) {
                                if (round->targets[i].id == nn.id) {
                                  round->loads[i] = l2;
                                  break;
                                }
                              }
                              assert(round->pending > 0);
                              --round->pending;
                              if (round->pending == 0) finalize();
                            });
                      });
                }
                assert(round->pending > 0);
                --round->pending;
                if (round->pending == 0) finalize();
              });
        });
  }
  // Timeout: finalize with whatever replies arrived (dead peers never answer).
  sys_.simulator().schedule(cfg_.reply_timeout_ms, finalize);
}

void LoadBalancer::migrate(net::HostIndex h,
                           std::vector<overlay::Peer> acceptors) {
  HyperSubNode& me = sys_.node(h);
  const Id my_id = me.node_id();
  // Clockwise order from this node: N, A1, ..., Ak (paper §4).
  std::sort(acceptors.begin(), acceptors.end(),
            [my_id](const overlay::Peer& a, const overlay::Peer& b) {
              return ring::distance(my_id, a.id) < ring::distance(my_id, b.id);
            });
  const std::size_t k = acceptors.size();

  // Zones whose summary shrank from extraction; propagated after the loop
  // (propagate_pieces can synchronously register a piece into a zone this
  // very node owns, i.e. insert into the map being iterated here).
  std::vector<ZoneAddr> shrunk;
  for (const auto& keyed : sys_.zones_in_order(h)) {
    const Id zone_key = keyed.first;
    const ZoneAddr& addr = keyed.second;
    ZoneState& zone = me.zones().at(addr);
    if (zone.subscription_count() == 0) continue;
    const SchemeRuntime& rt = sys_.scheme_runtime(addr.scheme);
    const Subscheme& ss = rt.subscheme(addr.subscheme);
    const std::size_t dims = rt.scheme().arity();
    const std::size_t proj_dims = ss.attributes().size();
    const HyperRect before_extract = zone.summary();

    for (std::size_t i = 0; i < k; ++i) {
      // Arc [A_i, A_{i+1}); the last acceptor takes [A_k, N).
      const Id lo = acceptors[i].id;
      const Id hi = (i + 1 < k) ? acceptors[i + 1].id : my_id;
      auto extracted = zone.extract_subscribers_in_arc(lo, hi);
      if (extracted.empty()) continue;

      // The pointer filter: deduplicated exact projected rects of what
      // leaves, plus their hull as a fast reject. The hull alone
      // over-covers — events in its dead corners chased the pointer to the
      // acceptor and matched nothing there.
      HyperRect summary;
      std::vector<HyperRect> sub_rects;
      for (const auto& s : extracted) {
        summary = summary.hull(s.projected);
        bool dup = false;
        for (const HyperRect& r : sub_rects) {
          if (r == s.projected) {
            dup = true;
            break;
          }
        }
        if (!dup) sub_rects.push_back(s.projected);
      }
      auto rects =
          std::make_shared<std::vector<HyperRect>>(std::move(sub_rects));

      // Failure-atomic handoff: the subscriptions count as migrated only
      // once the acceptor stored them AND the surrogate pointer landed
      // back at the origin. Both legs ride the reliable channel; if the
      // acceptor never acks, the extracted bucket is reinstalled locally
      // so no subscription is ever in neither place.
      auto bucket =
          std::make_shared<std::vector<StoredSub>>(std::move(extracted));
      const std::size_t count = bucket->size();
      const std::uint64_t total_bytes =
          overlay::kHeaderBytes + sub_bytes(dims) * count;
      const auto acceptor = acceptors[i];
      const ZoneAddr origin_addr = addr;
      // Tracing: one trace per bucket handoff. The migrate span opens at
      // the donor and closes only when the surrogate pointer is confirmed
      // back home (or the handoff rolls back); both reliable legs hang
      // their retry/expire spans under it.
      trace::TraceId mtrace = trace::kNoTrace;
      trace::SpanId mspan = trace::kNoSpan;
      if (auto* tr = sys_.tracer()) {
        mtrace = tr->start_trace(sys_.config().trace_sample_rate);
        if (mtrace != trace::kNoTrace) {
          mspan = tr->begin(mtrace, trace::kNoSpan,
                            trace::SpanKind::kMigrate, h,
                            sys_.simulator().now(), count,
                            std::uint64_t(acceptor.host));
        }
      }
      sys_.channel_.send(
          h, acceptor.host, total_bytes,
          [this, h, acceptor, origin_addr, zone_key, summary, rects, bucket,
           count, proj_dims, mtrace, mspan] {
            HyperSubNode& acc = sys_.node(acceptor.host);
            const std::uint32_t token =
                acc.accept_migration(zone_key, std::move(*bucket));
            // Register the surrogate pointer back at the origin. If the
            // origin dies before confirming, the bucket stays matchable at
            // the acceptor but unreachable — counted as failed, not
            // migrated (the origin's zone state died with it either way).
            // The pointer message carries the exact rects, not just the
            // hull; the wire cost scales with their count.
            sys_.channel_.send(
                acceptor.host, h,
                overlay::kHeaderBytes + kSubIdBytes +
                    16 * proj_dims * rects->size(),
                [this, h, acceptor, origin_addr, zone_key, summary, rects,
                 token, count, mspan] {
                  if (auto* tr = sys_.tracer()) {
                    tr->end(mspan, sys_.simulator().now());
                  }
                  // The zone may have folded into the saturated runs while
                  // the handoff was in flight (all subs unsubscribed):
                  // materialize it before touching its state.
                  ZoneState& zs = sys_.materialize_saturated(
                      sys_.node(h).primary(), origin_addr, zone_key);
                  const HyperRect before = zs.summary();
                  zs.add_migrated_bucket(MigratedBucket{
                      summary, std::move(*rects),
                      SubId{acceptor.id, token, SubIdKind::kMigrated}});
                  migrated_ += count;
                  // Coherence: the zone's repository changed shape (part
                  // of it now lives behind a migrated-bucket pointer);
                  // force the next publish of this key through a full
                  // resolution so publishers observe the new layout.
                  sys_.invalidate_cached_route(zone_key);
                  // An unsubscription during the handoff window may have
                  // shrunk the summary below the bucket's hull; the
                  // pointer re-grows it, and ancestors must hear about it
                  // or events die upstream of this zone.
                  if (!(zs.summary() == before)) {
                    sys_.propagate_pieces(h, origin_addr);
                  }
                },
                [this, count] { failed_ += count; },
                trace::TraceCtx{mtrace, mspan});
          },
          [this, h, origin_addr, zone_key, bucket, count, mtrace, mspan] {
            // Acceptor unresponsive: roll back — reinstall the extracted
            // subscriptions at the origin.
            if (auto* tr = sys_.tracer()) {
              tr->point(mtrace, mspan, trace::SpanKind::kDrop, h,
                        sys_.simulator().now(), count);
              tr->end(mspan, sys_.simulator().now());
            }
            ZoneState& zs = sys_.materialize_saturated(
                sys_.node(h).primary(), origin_addr, zone_key);
            const HyperRect before = zs.summary();
            for (auto& s : *bucket) zs.add_subscription(std::move(s));
            failed_ += count;
            if (!(zs.summary() == before)) {
              sys_.propagate_pieces(h, origin_addr);
            }
          },
          trace::TraceCtx{mtrace, mspan});
    }
    // Extraction shrinks the summary exactly (it used to stay unshrunk, so
    // the donor kept attracting events that matched nothing locally for
    // the rest of the run — permanently after a failed pointer leg, which
    // leaves no bucket to forward through). Tell the ancestors; the
    // asynchronous pointer legs re-propagate if they re-grow it later.
    if (!(zone.summary() == before_extract)) shrunk.push_back(addr);
  }
  for (const ZoneAddr& addr : shrunk) sys_.propagate_pieces(h, addr);
}

}  // namespace hypersub::core
