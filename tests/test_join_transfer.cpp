// Live join/leave state-transfer tests: a protocol join must hand the
// joiner exactly the zone state an oracle build would have placed there
// (snapshot + write-behind replay), a graceful leave must push everything
// to the successor before departing, and the whole-run checkpoint must be
// transparent — a run restored mid-flight finishes byte-identical to the
// uninterrupted run.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "chord/chord_net.hpp"
#include "common/wire.hpp"
#include "core/hypersub_system.hpp"
#include "net/topology.hpp"
#include "runner/checkpoint.hpp"
#include "trace/tracer.hpp"
#include "workload/scheme_factory.hpp"
#include "workload/zipf_workload.hpp"

namespace hypersub {
namespace {

struct StackOpts {
  std::size_t hosts = 32;
  std::uint64_t seed = 1;
  std::size_t replicas = 0;
  bool reliable = false;
  /// Host killed before the overlay is built (starts outside the ring).
  net::HostIndex pre_kill = overlay::Peer::kInvalidHost;
  core::BootstrapMode bootstrap = core::BootstrapMode::kOracle;
};

struct Stack {
  std::unique_ptr<net::KingLikeTopology> topo;
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<chord::ChordNet> chord;
  std::unique_ptr<core::HyperSubSystem> sys;
  std::unique_ptr<workload::WorkloadGenerator> gen;
  std::uint32_t scheme = 0;
};

Stack make_stack(const StackOpts& o) {
  Stack s;
  net::KingLikeTopology::Params tp;
  tp.hosts = o.hosts;
  tp.seed = o.seed;
  s.topo = std::make_unique<net::KingLikeTopology>(tp);
  s.sim = std::make_unique<sim::Simulator>();
  s.net = std::make_unique<net::Network>(*s.sim, *s.topo);
  if (o.pre_kill != overlay::Peer::kInvalidHost) s.net->kill(o.pre_kill);
  chord::ChordNet::Params cp;
  cp.seed = o.seed;
  cp.reliable_routing = o.reliable;
  s.chord = std::make_unique<chord::ChordNet>(*s.net, cp);
  core::HyperSubSystem::Config sc;
  sc.bootstrap = o.bootstrap;
  sc.replicas = o.replicas;
  sc.reliable_delivery = o.reliable;
  s.sys = std::make_unique<core::HyperSubSystem>(*s.chord, sc);
  s.gen = std::make_unique<workload::WorkloadGenerator>(workload::tiny_spec(),
                                                        o.seed + 100);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  s.scheme = s.sys->add_scheme(s.gen->scheme(), opt);
  return s;
}

/// Drive a protocol join to its commit: maintenance converges the ring
/// splice, the handover ticks move the state, then everything drains.
void settle_join(Stack& s, double window_ms = 30000.0) {
  s.sim->run_until(s.sim->now() + window_ms);
  s.chord->stop_maintenance();
  s.sim->run();
  EXPECT_FALSE(s.sys->transfer_active());
}

/// Per-host fingerprints of every subscription-bearing primary zone.
/// Replica copies and empty piece skeletons are excluded: replica chains
/// legitimately differ after a live handover (the last heir of the old
/// chain keeps a stale copy), and skeletons re-materialize from piece
/// propagation.
using ZoneKey =
    std::tuple<net::HostIndex, std::uint32_t, std::uint32_t, int,
               std::uint64_t>;
std::map<ZoneKey, std::uint64_t> zone_fingerprints(const Stack& s) {
  std::map<ZoneKey, std::uint64_t> out;
  for (net::HostIndex h = 0; h < s.topo->size(); ++h) {
    if (!s.net->alive(h)) continue;
    for (const auto& [addr, z] : s.sys->node(h).zones()) {
      if (z.subscription_count() == 0 && z.buckets().empty()) continue;
      out[{h, addr.scheme, addr.subscheme, addr.zone.level,
           std::uint64_t(addr.zone.code)}] = z.fingerprint();
    }
  }
  return out;
}

/// The same map with the host erased: "which zones exist where-ever, with
/// what content" — invariant across a graceful leave (content moves, is
/// not lost).
std::map<std::tuple<std::uint32_t, std::uint32_t, int, std::uint64_t>,
         std::uint64_t>
placed_anywhere(const std::map<ZoneKey, std::uint64_t>& fps) {
  std::map<std::tuple<std::uint32_t, std::uint32_t, int, std::uint64_t>,
           std::uint64_t>
      out;
  for (const auto& [k, fp] : fps) {
    out[{std::get<1>(k), std::get<2>(k), std::get<3>(k), std::get<4>(k)}] = fp;
  }
  return out;
}

using DeliveryRow = std::tuple<std::uint64_t, std::uint64_t, std::uint32_t>;
std::vector<DeliveryRow> delivery_set(const Stack& s) {
  std::vector<DeliveryRow> out;
  for (const auto& d : s.sys->deliveries()) {
    out.emplace_back(d.event_seq, std::uint64_t(d.subscriber), d.iid);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- snapshot/replay equivalence -----------------------------------------

TEST(JoinTransfer, ProtocolJoinMatchesOracleBuild) {
  constexpr net::HostIndex kJoiner = 13;
  // Stack A: everyone (including the joiner-to-be) in the ring from the
  // start, oracle-built. Stack B: identical, except kJoiner starts dead
  // and enters later through the live join protocol.
  Stack a = make_stack({});
  Stack b = make_stack({.pre_kill = kJoiner});

  // Identical install script in both stacks, from hosts != kJoiner.
  Rng rng(19);
  for (int i = 0; i < 120; ++i) {
    net::HostIndex h = net::HostIndex(rng.index(32));
    if (h == kJoiner) h = (h + 1) % 32;
    const auto sub_a = a.gen->make_subscription();
    const auto sub_b = b.gen->make_subscription();
    a.sys->subscribe(h, a.scheme, sub_a);
    b.sys->subscribe(h, b.scheme, sub_b);
  }
  a.sim->run();
  b.sim->run();

  // Live entry: splice + snapshot handshake + commit.
  b.net->revive(kJoiner);
  b.chord->start_maintenance();
  b.sys->join_node(kJoiner, 0);
  settle_join(b);
  EXPECT_EQ(b.sys->join_stats().joins_committed, 1u);
  EXPECT_GT(b.sys->join_stats().zones_transferred, 0u);
  EXPECT_GT(b.sys->join_stats().transfer_bytes, 0u);
  EXPECT_TRUE(b.sys->check_zone_invariants());

  // Same zones, on the same hosts, with the same contents.
  EXPECT_EQ(zone_fingerprints(a), zone_fingerprints(b));

  // And the same delivery behavior: an identical event feed notifies the
  // identical (event, subscriber, subscription) set.
  for (int i = 0; i < 12; ++i) {
    const net::HostIndex pub = net::HostIndex(rng.index(32));
    const auto ev_a = a.gen->make_event();
    const auto ev_b = b.gen->make_event();
    a.sys->publish(pub, a.scheme, ev_a);
    b.sys->publish(pub, b.scheme, ev_b);
  }
  a.sim->run();
  b.sim->run();
  a.sys->finalize_events();
  b.sys->finalize_events();
  EXPECT_EQ(delivery_set(a), delivery_set(b));
}

// After the commit the joiner's heirs must replicate everything it took
// over, piece-only zones included: they relay events up the zone tree.
// Crashing the joiner right after its commit then loses no delivery.
TEST(JoinTransfer, JoinerCrashAfterCommitLosesNoDelivery) {
  constexpr net::HostIndex kJoiner = 9;
  Stack s = make_stack({.replicas = 2, .pre_kill = kJoiner});
  Rng rng(31);
  std::vector<std::pair<net::HostIndex, pubsub::Subscription>> subs;
  for (int i = 0; i < 120; ++i) {
    net::HostIndex h = net::HostIndex(rng.index(32));
    if (h == kJoiner) h = (h + 1) % 32;
    subs.emplace_back(h, s.gen->make_subscription());
    s.sys->subscribe(h, s.scheme, subs.back().second);
  }
  s.sim->run();

  s.net->revive(kJoiner);
  s.chord->start_maintenance();
  s.sys->join_node(kJoiner, 0);
  settle_join(s);
  ASSERT_EQ(s.sys->join_stats().joins_committed, 1u);
  ASSERT_GT(s.sys->join_stats().zones_transferred, 0u);

  s.sys->crash_node(kJoiner);
  s.chord->oracle_build();

  for (int i = 0; i < 30; ++i) {
    net::HostIndex pub = net::HostIndex(rng.index(32));
    if (pub == kJoiner) pub = (pub + 1) % 32;
    const auto e = s.gen->make_event();
    const std::size_t before = s.sys->deliveries().size();
    s.sys->publish(pub, s.scheme, e);
    s.sim->run();
    std::multiset<std::size_t> got, expect;
    for (std::size_t d = before; d < s.sys->deliveries().size(); ++d) {
      got.insert(s.sys->deliveries()[d].subscriber);
    }
    for (const auto& [h, sub] : subs) {
      if (sub.matches(e.point)) expect.insert(h);
    }
    EXPECT_EQ(got, expect) << "event " << i;
  }
}

TEST(JoinTransfer, UpdatesDuringTransferAreReplayed) {
  // Host 9 owns a wide arc under this seed, so a dense install feed is
  // guaranteed to land writes inside its transfer window.
  constexpr net::HostIndex kJoiner = 9;
  Stack a = make_stack({});
  Stack b = make_stack({.pre_kill = kJoiner});

  Rng rng(23);
  for (int i = 0; i < 80; ++i) {
    net::HostIndex h = net::HostIndex(rng.index(32));
    if (h == kJoiner) h = (h + 1) % 32;
    a.sys->subscribe(h, a.scheme, a.gen->make_subscription());
    b.sys->subscribe(h, b.scheme, b.gen->make_subscription());
  }
  a.sim->run();
  b.sim->run();

  // Start the join, then keep installing while the handshake is in
  // flight: installs spread across the splice + transfer window hit the
  // old owner's write-behind queue or the warming joiner's deferral path
  // and must all land exactly once.
  b.net->revive(kJoiner);
  b.chord->start_maintenance();
  b.sys->join_node(kJoiner, 0);
  // The handshake spans a few hundred milliseconds (splice + snapshot +
  // commit round trips); a 5 ms install cadence guarantees plenty of
  // installs land inside it.
  for (int i = 0; i < 600; ++i) {
    net::HostIndex h = net::HostIndex(rng.index(32));
    if (h == kJoiner) h = (h + 1) % 32;
    const double at = 5.0 * (i + 1);
    const auto sub_a = a.gen->make_subscription();
    const auto sub_b = b.gen->make_subscription();
    a.sim->schedule(at, [&a, h, sub_a] { a.sys->subscribe(h, a.scheme, sub_a); });
    b.sim->schedule(at, [&b, h, sub_b] { b.sys->subscribe(h, b.scheme, sub_b); });
  }
  a.sim->run();
  settle_join(b);
  EXPECT_EQ(b.sys->join_stats().joins_committed, 1u);
  // The window was actually exercised: some installs arrived mid-transfer.
  EXPECT_GT(b.sys->join_stats().queued_ops_replayed +
                b.sys->join_stats().warm_ops_replayed,
            0u);
  EXPECT_TRUE(b.sys->check_zone_invariants());
  EXPECT_EQ(zone_fingerprints(a), zone_fingerprints(b));

  for (int i = 0; i < 12; ++i) {
    const net::HostIndex pub = net::HostIndex(rng.index(32));
    const auto ev_a = a.gen->make_event();
    const auto ev_b = b.gen->make_event();
    a.sys->publish(pub, a.scheme, ev_a);
    b.sys->publish(pub, b.scheme, ev_b);
  }
  a.sim->run();
  b.sim->run();
  a.sys->finalize_events();
  b.sys->finalize_events();
  EXPECT_EQ(delivery_set(a), delivery_set(b));
}

// --- graceful leave -------------------------------------------------------

TEST(JoinTransfer, LeaveMovesStateThenRejoinRestoresIt) {
  constexpr net::HostIndex kNode = 9;
  Stack s = make_stack({.seed = 5});
  Rng rng(29);
  for (int i = 0; i < 120; ++i) {
    s.sys->subscribe(net::HostIndex(rng.index(32)), s.scheme,
                     s.gen->make_subscription());
  }
  s.sim->run();
  const auto fp0 = zone_fingerprints(s);
  ASSERT_FALSE(fp0.empty());

  // Graceful departure: every zone the leaver hosted survives, re-homed at
  // its successor — nothing is lost, only relocated.
  s.sys->leave_node(kNode);
  s.sim->run();
  EXPECT_FALSE(s.net->alive(kNode));
  EXPECT_EQ(s.sys->join_stats().leaves_completed, 1u);
  EXPECT_TRUE(s.sys->check_zone_invariants());
  EXPECT_EQ(placed_anywhere(fp0), placed_anywhere(zone_fingerprints(s)));

  // Rejoin through the live protocol: the zones flow back and the layout
  // converges to exactly the pre-leave placement.
  s.chord->start_maintenance();
  s.sys->join_node(kNode, 0);
  settle_join(s);
  EXPECT_EQ(s.sys->join_stats().joins_committed, 1u);
  EXPECT_TRUE(s.sys->check_zone_invariants());
  EXPECT_EQ(fp0, zone_fingerprints(s));
}

// --- whole-run checkpoint/restore ----------------------------------------

/// One scripted run, optionally interrupted at event kCut by a checkpoint:
/// the interrupted variant serializes everything, rebuilds a fresh stack
/// (BootstrapMode::kNone — the blob carries the ring), restores, and
/// finishes the identical schedule. Returns the final checkpoint blob.
std::vector<std::uint8_t> scripted_run(bool interrupt) {
  constexpr std::size_t kEvents = 24;
  constexpr std::size_t kCut = 12;
  const StackOpts base{.seed = 7};

  Stack s = make_stack(base);
  trace::Tracer tracer;
  s.sys->set_tracer(&tracer);

  // Pre-draw the whole script so generator state never depends on which
  // stack consumed it.
  Rng rng(31);
  std::vector<std::pair<net::HostIndex, pubsub::Subscription>> subs;
  for (int i = 0; i < 80; ++i) {
    subs.emplace_back(net::HostIndex(rng.index(32)), s.gen->make_subscription());
  }
  std::vector<std::pair<net::HostIndex, pubsub::Event>> events;
  for (std::size_t i = 0; i < kEvents; ++i) {
    events.emplace_back(net::HostIndex(rng.index(32)), s.gen->make_event());
  }

  for (const auto& [h, sub] : subs) s.sys->subscribe(h, s.scheme, sub);
  s.sim->run();

  // Events on a fixed absolute timeline, far enough apart that each tree
  // drains before the next publish — the cut lands at quiescence.
  const auto schedule = [](Stack& st, const auto& evs, std::size_t from,
                           std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      const auto& [pub, ev] = evs[i];
      st.sim->schedule_at(20000.0 + 5000.0 * double(i),
                          [&st, pub, ev] { st.sys->publish(pub, st.scheme, ev); });
    }
  };

  if (!interrupt) {
    schedule(s, events, 0, kEvents);
    s.sim->run();
    s.sys->finalize_events();
    return runner::checkpoint(*s.sys, &tracer);
  }

  schedule(s, events, 0, kCut);
  s.sim->run();
  s.sys->finalize_events();
  const auto mid = runner::checkpoint(*s.sys, &tracer);

  // Fresh process: same construction-time config, no oracle build (the
  // blob carries the ring), then resume the identical schedule.
  StackOpts ropts = base;
  ropts.bootstrap = core::BootstrapMode::kNone;
  Stack r = make_stack(ropts);
  trace::Tracer rtracer;
  EXPECT_TRUE(runner::restore(*r.sys, mid, &rtracer));
  EXPECT_EQ(r.sim->now(), s.sim->now());
  schedule(r, events, kCut, kEvents);
  r.sim->run();
  r.sys->finalize_events();
  return runner::checkpoint(*r.sys, &rtracer);
}

TEST(JoinTransfer, CheckpointRestoreIsByteIdentical) {
  const auto uninterrupted = scripted_run(/*interrupt=*/false);
  const auto resumed = scripted_run(/*interrupt=*/true);
  ASSERT_FALSE(uninterrupted.empty());
  // A checkpointed-and-restored run is indistinguishable from one that
  // never stopped.
  EXPECT_EQ(uninterrupted, resumed);
}

// Only the current format has a reader: a blob whose format word names
// another version is refused before the stack is touched, and the same
// fresh stack then restores from the correct blob.
TEST(JoinTransfer, RestoreRefusesAnotherWireVersion) {
  Stack s = make_stack({});
  Rng rng(37);
  for (int i = 0; i < 40; ++i) {
    s.sys->subscribe(net::HostIndex(rng.index(32)), s.scheme,
                     s.gen->make_subscription());
  }
  s.sim->run();
  const auto blob = runner::checkpoint(*s.sys);
  ASSERT_EQ(common::ByteReader(blob).u32(), common::kWireVersion);
  // The leading word is little-endian: rewrite it as 3.
  auto older = blob;
  older[0] = 3;
  older[1] = older[2] = older[3] = 0;

  Stack r = make_stack({.bootstrap = core::BootstrapMode::kNone});
  EXPECT_FALSE(runner::restore(*r.sys, older));
  EXPECT_EQ(r.sim->now(), 0.0);
  ASSERT_TRUE(runner::restore(*r.sys, blob));
  EXPECT_EQ(r.sim->now(), s.sim->now());
  EXPECT_EQ(r.sys->zone_content_digest(), s.sys->zone_content_digest());
  EXPECT_EQ(runner::checkpoint(*r.sys), blob);
}

// --- delivery through churn ----------------------------------------------

TEST(JoinTransfer, ChurnWithProtocolJoinsKeepsDeliveryNearBaseline) {
  const StackOpts opts{.hosts = 40, .seed = 11, .replicas = 2,
                       .reliable = true};
  Stack base = make_stack(opts);
  Stack churn = make_stack(opts);

  Rng rng(37);
  std::vector<std::pair<net::HostIndex, pubsub::Subscription>> subs;
  for (int i = 0; i < 120; ++i) {
    subs.emplace_back(net::HostIndex(rng.index(40)),
                      base.gen->make_subscription());
  }
  std::vector<std::pair<net::HostIndex, pubsub::Event>> events;
  for (int i = 0; i < 40; ++i) {
    net::HostIndex pub = net::HostIndex(rng.index(40));
    if (pub == 7) pub = 8;  // the churned node never publishes
    events.emplace_back(pub, base.gen->make_event());
  }
  for (Stack* s : {&base, &churn}) {
    for (const auto& [h, sub] : subs) s->sys->subscribe(h, s->scheme, sub);
    s->sim->run();
  }

  const auto feed = [&](Stack& s, std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      s.sys->publish(events[i].first, s.scheme, events[i].second);
    }
  };

  // Baseline: static membership.
  feed(base, 0, 40);
  base.sim->run();
  base.sys->finalize_events();

  // Churned run: a graceful leave with events landing mid-transfer, then a
  // protocol rejoin with events landing mid-warmup.
  feed(churn, 0, 10);
  churn.sim->run();
  churn.sys->leave_node(7);
  feed(churn, 10, 15);  // in flight while the leave handover runs
  churn.sim->run();
  EXPECT_EQ(churn.sys->join_stats().leaves_completed, 1u);
  churn.chord->start_maintenance();
  churn.sys->join_node(7, 0);
  feed(churn, 15, 20);  // in flight while the joiner warms
  settle_join(churn);
  EXPECT_EQ(churn.sys->join_stats().joins_committed, 1u);
  EXPECT_GT(churn.sys->join_stats().zones_transferred, 0u);
  feed(churn, 20, 40);
  churn.sim->run();
  churn.sys->finalize_events();
  EXPECT_TRUE(churn.sys->check_zone_invariants());

  // State transfer keeps the subscription store intact, so only
  // deliveries addressed to the node while it was out of the ring can be
  // lost — a sliver of the feed.
  const double got = double(churn.sys->deliveries().size());
  const double want = double(base.sys->deliveries().size());
  ASSERT_GT(want, 0.0);
  EXPECT_GE(got, 0.9 * want);
}

}  // namespace
}  // namespace hypersub
