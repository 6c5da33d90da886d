// Reliability-layer tests: ReliableChannel transport semantics, reliable
// lookup routing with successor failover, load-balancer correctness under
// the self-inclusive average and failure-atomic migration, and churn
// delivery with retries + reroutes versus the fire-and-forget baseline.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "chord/chord_net.hpp"
#include "core/hypersub_system.hpp"
#include "core/load_balancer.hpp"
#include "net/reliable_channel.hpp"
#include "net/topology.hpp"
#include "workload/scheme_factory.hpp"
#include "workload/zipf_workload.hpp"

namespace hypersub {
namespace {

using core::HyperSubSystem;
using core::LoadBalancer;

struct Stack {
  std::unique_ptr<net::KingLikeTopology> topo;
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<chord::ChordNet> chord;
  std::unique_ptr<core::HyperSubSystem> sys;
};

Stack make_stack(std::size_t n, std::uint64_t seed = 1,
                 bool reliable = false) {
  Stack s;
  net::KingLikeTopology::Params tp;
  tp.hosts = n;
  tp.seed = seed;
  s.topo = std::make_unique<net::KingLikeTopology>(tp);
  s.sim = std::make_unique<sim::Simulator>();
  s.net = std::make_unique<net::Network>(*s.sim, *s.topo);
  chord::ChordNet::Params cp;
  cp.seed = seed;
  cp.reliable_routing = reliable;
  s.chord = std::make_unique<chord::ChordNet>(*s.net, cp);
  HyperSubSystem::Config sc;
  sc.bootstrap = core::BootstrapMode::kOracle;
  sc.reliable_delivery = reliable;
  s.sys = std::make_unique<core::HyperSubSystem>(*s.chord, sc);
  return s;
}

// ---------------------------------------------------------------------------
// ReliableChannel transport semantics
// ---------------------------------------------------------------------------

TEST(ReliableChannel, DeliversOnceAndAcks) {
  auto s = make_stack(4);
  net::ReliableChannel ch(*s.net);
  int delivered = 0, failed = 0;
  ch.send(0, 1, 100, [&] { ++delivered; }, [&] { ++failed; });
  s.sim->run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(ch.stats().sent, 1u);
  EXPECT_EQ(ch.stats().acked, 1u);
  EXPECT_EQ(ch.stats().retries, 0u);
  EXPECT_EQ(ch.stats().expired, 0u);
}

TEST(ReliableChannel, SelfSendDeliversWithoutAckMachinery) {
  auto s = make_stack(4);
  net::ReliableChannel ch(*s.net);
  int delivered = 0;
  ch.send(2, 2, 50, [&] { ++delivered; });
  s.sim->run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(ch.stats().retries, 0u);
}

TEST(ReliableChannel, DeadReceiverExpiresThroughAllRetries) {
  auto s = make_stack(4);
  net::ReliableChannel::Config cfg;
  cfg.max_retries = 2;
  net::ReliableChannel ch(*s.net, cfg);
  s.net->kill(1);
  int delivered = 0, failed = 0;
  ch.send(0, 1, 100, [&] { ++delivered; }, [&] { ++failed; });
  s.sim->run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(ch.stats().retries, 2u);
  EXPECT_EQ(ch.stats().expired, 1u);
  EXPECT_EQ(ch.stats().acked, 0u);
}

TEST(ReliableChannel, RacingRetransmissionsAreSuppressed) {
  auto s = make_stack(4);
  // Ack deadline above the one-way latency but below the RTT: the original
  // copy delivers, yet retries fire before its ack returns and their copies
  // race in behind it.
  net::ReliableChannel::Config cfg;
  cfg.ack_timeout_ms = 1.2 * s.topo->latency(0, 1);
  cfg.backoff = 1.0;
  cfg.max_retries = 3;
  net::ReliableChannel ch(*s.net, cfg);
  int delivered = 0, failed = 0;
  ch.send(0, 1, 100, [&] { ++delivered; }, [&] { ++failed; });
  s.sim->run();
  EXPECT_EQ(delivered, 1);  // exactly once despite the retransmissions
  EXPECT_EQ(failed, 0);
  EXPECT_GT(ch.stats().retries, 0u);
  EXPECT_GT(ch.stats().duplicates_suppressed, 0u);
  EXPECT_EQ(ch.stats().acked, 1u);
}

TEST(ReliableChannel, ExpiredMessageSuppressesLateDelivery) {
  auto s = make_stack(4);
  // Ack deadline below the one-way latency: every attempt expires before
  // any copy can arrive. Once the sender gives up (and would reroute), a
  // late-arriving original must NOT be processed — at-most-once per
  // logical message, or the reroute would duplicate it.
  net::ReliableChannel::Config cfg;
  cfg.ack_timeout_ms = 0.01;
  cfg.backoff = 1.0;
  cfg.max_retries = 3;
  net::ReliableChannel ch(*s.net, cfg);
  int delivered = 0, failed = 0;
  ch.send(0, 1, 100, [&] { ++delivered; }, [&] { ++failed; });
  s.sim->run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(ch.stats().expired, 1u);
  EXPECT_EQ(ch.stats().duplicates_suppressed, 4u);  // all four copies
}

TEST(ReliableChannel, OnFailNotRunAtDeadSender) {
  auto s = make_stack(4);
  net::ReliableChannel ch(*s.net);
  s.net->kill(1);
  int failed = 0;
  ch.send(0, 1, 100, [] {}, [&] { ++failed; });
  // The sender dies while its retries are pending; nobody is left to
  // reroute, so on_fail must not run.
  s.sim->schedule(1.0, [&] { s.net->kill(0); });
  s.sim->run();
  EXPECT_EQ(failed, 0);
}

// ---------------------------------------------------------------------------
// Reliable lookup routing: failover around a dead owner
// ---------------------------------------------------------------------------

TEST(ReliableRouting, RouteFailsOverToSuccessorOfDeadOwner) {
  auto s = make_stack(24, 5, /*reliable=*/true);
  const Id key = 0x123456789abcdef0ULL;
  const auto owner = s.chord->oracle_successor(key);
  s.chord->fail(owner.host);
  // No repair: routing state everywhere still points at the dead owner.
  const auto heir = s.chord->oracle_successor(key);
  ASSERT_NE(heir.host, owner.host);

  overlay::Peer reached;
  s.chord->route((owner.host + 1) % 24, key, 0,
                 [&](const chord::ChordNet::RouteResult& r) {
                   reached = r.owner;
                 });
  s.sim->run();
  // The lookup detoured around the dead node and terminated at the live
  // heir of its range (predecessor gossip lets the heir claim the range).
  EXPECT_EQ(reached.host, heir.host);
  const auto rel = s.chord->route_reliability();
  EXPECT_GT(rel.expirations, 0u);
  EXPECT_GT(rel.reroutes, 0u);
  EXPECT_EQ(rel.unmasked_drops, 0u);
}

TEST(ReliableRouting, SubscribeSurvivesDeadOwnerAndEventsDeliver) {
  auto s = make_stack(24, 7, /*reliable=*/true);
  workload::WorkloadGenerator gen(workload::tiny_spec(), 3);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  const auto scheme = s.sys->add_scheme(gen.scheme(), opt);

  const auto sub = pubsub::Subscription(gen.scheme().domain());
  const auto& ss = s.sys->scheme_runtime(scheme).subscheme(0);
  const auto key =
      lph::hash_subscription(ss.zones(), sub.range(), ss.rotation()).key;
  const auto owner = s.chord->oracle_successor(key);
  s.chord->fail(owner.host);
  const auto heir = s.chord->oracle_successor(key);

  const net::HostIndex subscriber = (owner.host + 1) % 24 == heir.host
                                        ? (owner.host + 2) % 24
                                        : (owner.host + 1) % 24;
  ASSERT_TRUE(s.net->alive(subscriber));
  s.sys->subscribe(subscriber, scheme, sub);
  s.sim->run();
  // The installation failed over to the heir instead of vanishing.
  EXPECT_GT(s.sys->node(heir.host).zones().size(), 0u);

  net::HostIndex pub = 0;
  while (!s.net->alive(pub) || pub == subscriber) ++pub;
  s.sys->publish(pub, scheme, gen.make_event());
  s.sim->run();
  s.sys->finalize_events();
  ASSERT_EQ(s.sys->deliveries().size(), 1u);
  EXPECT_EQ(s.sys->deliveries()[0].subscriber, subscriber);
}

TEST(ReliableDelivery, FrameDeliveredThenExpiredReroutesNothing) {
  // Uniform 10 ms one-way latency and a 15 ms ack deadline with no
  // retries: every event frame is delivered (10 ms) before its ack could
  // return (20 ms), so every frame also expires at its sender. A delivered
  // frame's subids are consumed: the expiry must reroute none of them, or
  // the receiver's subtree would be processed twice, and must not retire
  // their outstanding slots again, or the event would finalize while its
  // messages are still in flight.
  constexpr std::size_t kHosts = 24;
  std::vector<std::vector<double>> oneway(kHosts,
                                          std::vector<double>(kHosts, 10.0));
  for (std::size_t i = 0; i < kHosts; ++i) oneway[i][i] = 0.0;
  net::MatrixTopology topo(std::move(oneway));
  sim::Simulator sim;
  net::Network net(sim, topo);
  chord::ChordNet::Params cp;
  cp.seed = 5;
  chord::ChordNet chord(net, cp);
  HyperSubSystem::Config sc;
  sc.bootstrap = core::BootstrapMode::kOracle;
  sc.reliable_delivery = true;
  sc.reliable.ack_timeout_ms = 15.0;
  sc.reliable.max_retries = 0;
  HyperSubSystem sys(chord, sc);

  workload::WorkloadGenerator gen(workload::tiny_spec(), 9);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  const auto scheme = sys.add_scheme(gen.scheme(), opt);
  Rng rng(11);
  for (int i = 0; i < 80; ++i) {
    sys.subscribe(net::HostIndex(rng.index(kHosts)), scheme,
                  gen.make_subscription());
  }
  sim.run();
  for (int i = 0; i < 20; ++i) {
    sys.publish(net::HostIndex(rng.index(kHosts)), scheme, gen.make_event());
  }
  sim.run();
  sys.finalize_events();

  const auto c = sys.reliability_counters();
  ASSERT_GT(c.expirations, 0u);  // frames really were delivered, then expired
  EXPECT_GT(sys.deliveries().size(), 0u);
  EXPECT_EQ(c.reroutes, 0u);
  EXPECT_EQ(c.duplicates_suppressed, 0u);
  std::set<std::tuple<std::uint64_t, net::HostIndex, std::uint32_t>> seen;
  std::map<std::uint64_t, std::size_t> per_event;
  for (const auto& d : sys.deliveries()) {
    EXPECT_TRUE(seen.insert({d.event_seq, d.subscriber, d.iid}).second)
        << "duplicate delivery of event " << d.event_seq;
    // Every hop takes 10 ms; a delivery after its event finalized reads 0.
    EXPECT_GT(d.latency_ms, 0.0) << "event " << d.event_seq;
    ++per_event[d.event_seq];
  }
  const auto& records = sys.event_metrics().records();
  ASSERT_EQ(records.size(), 20u);
  for (const auto& r : records) {
    EXPECT_EQ(r.matched, per_event[r.seq]) << "event " << r.seq;
  }
}

// ---------------------------------------------------------------------------
// Load balancer: self-inclusive neighborhood average
// ---------------------------------------------------------------------------

/// Injects `count` subscriptions owned by node id `owner_id` directly into
/// a zone hosted at `host` (bypasses routing: load-shape control).
void inject_load(Stack& s, std::uint32_t scheme, net::HostIndex host,
                 Id owner_id, std::size_t count) {
  const auto& rt = s.sys->scheme_runtime(scheme);
  const auto& ss = rt.subscheme(0);
  const lph::Zone root = ss.zones().root();
  const core::ZoneAddr addr{scheme, 0, root};
  auto& zs = s.sys->node(host).primary().zone_state(addr, ss.zone_key(root));
  const HyperRect range = rt.scheme().domain();
  for (std::size_t i = 0; i < count; ++i) {
    zs.add_subscription(core::StoredSub{
        core::SubId{owner_id, std::uint32_t(i), core::SubIdKind::kSubscriber},
        pubsub::Subscription(range), ss.project(range)});
  }
}

TEST(LoadBalancerAverage, SelfInclusiveAverageAvoidsSpuriousMigration) {
  // 3-node ring: h=100, B=80, C=96. Without self in the average, h sees
  // avg=(80+96)/2=88, threshold 96.8 < 100 and migrates even though it
  // carries almost exactly the true neighborhood average (92, threshold
  // 101.2). The self-inclusive average must not migrate.
  auto s = make_stack(3, 17);
  workload::WorkloadGenerator gen(workload::tiny_spec(), 3);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  const auto scheme = s.sys->add_scheme(gen.scheme(), opt);
  inject_load(s, scheme, 0, s.chord->id_of(1), 100);
  inject_load(s, scheme, 1, s.chord->id_of(1), 80);
  inject_load(s, scheme, 2, s.chord->id_of(1), 96);

  LoadBalancer::Config lc;
  lc.delta = 0.1;
  LoadBalancer lb(*s.sys, lc);
  lb.run_round();
  EXPECT_EQ(lb.migrated_count(), 0u);
  EXPECT_EQ(s.sys->node(0).load(), 100u);
}

TEST(LoadBalancerAverage, GenuineOverloadStillMigrates) {
  // Same shape with B nearly idle: avg=(100+10+96)/3≈68.7, threshold ≈75.5
  // < 100 — h must still migrate (the fix must not deadband real skew).
  auto s = make_stack(3, 17);
  workload::WorkloadGenerator gen(workload::tiny_spec(), 3);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  const auto scheme = s.sys->add_scheme(gen.scheme(), opt);
  inject_load(s, scheme, 0, s.chord->id_of(1), 100);
  inject_load(s, scheme, 1, s.chord->id_of(1), 10);
  inject_load(s, scheme, 2, s.chord->id_of(1), 96);

  LoadBalancer::Config lc;
  lc.delta = 0.1;
  LoadBalancer lb(*s.sys, lc);
  lb.run_round();
  EXPECT_GT(lb.migrated_count(), 0u);
  EXPECT_LT(s.sys->node(0).load(), 100u);
}

// ---------------------------------------------------------------------------
// Load balancer: failure-atomic migration
// ---------------------------------------------------------------------------

TEST(LoadBalancerMigration, AcceptorDeathRollsBackExtractedBucket) {
  // 8 nodes: h=0 overloaded (120), X idle (0, the only acceptor), W dead
  // before the round (forces the probe to finalize at the reply timeout),
  // the rest at 60. X is killed while the migration bucket is in flight:
  // the handoff must roll back — nothing counted migrated, every
  // subscription back at the origin.
  auto s = make_stack(8, 23);
  workload::WorkloadGenerator gen(workload::tiny_spec(), 3);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  const auto scheme = s.sys->add_scheme(gen.scheme(), opt);
  const net::HostIndex h = 0, x = 1, w = 2;
  inject_load(s, scheme, h, s.chord->id_of(x), 120);
  for (net::HostIndex m = 3; m < 8; ++m) {
    inject_load(s, scheme, m, s.chord->id_of(x), 60);
  }
  s.net->kill(w);

  LoadBalancer::Config lc;
  lc.delta = 0.1;
  LoadBalancer lb(*s.sys, lc);
  // The bucket leaves h when the probe round finalizes (reply timeout,
  // because dead W never answers); kill X while it is in flight.
  const double in_flight =
      lc.reply_timeout_ms + 0.5 * s.topo->latency(h, x);
  s.sim->schedule(in_flight, [&] { s.net->kill(x); });
  lb.run_round();

  EXPECT_EQ(lb.migrated_count(), 0u);
  EXPECT_GT(lb.failed_migrations(), 0u);
  EXPECT_EQ(s.sys->node(h).load(), 120u);  // rolled back, nothing lost
  // The reinstalled zones are internally exact: each summary still covers
  // every subscription. Extraction shrinks the summary exactly and the
  // rollback re-grows it, so the re-propagation can leave structural
  // piece-only zones at the origin — count subscriptions across zones.
  std::size_t reinstalled = 0;
  for (const auto& [addr, zone] : s.sys->node(h).zones()) {
    reinstalled += zone.subscription_count();
    for (const auto& sub : zone.subscriptions()) {
      EXPECT_TRUE(zone.summary().covers(sub.projected));
    }
  }
  EXPECT_EQ(reinstalled, 120u);
}

TEST(LoadBalancerMigration, HealthyMigrationConfirmsAndCounts) {
  // Identical shape but nobody dies mid-handoff: the whole arc [X, h)
  // (every injected subscription) lands at X and is counted only then.
  auto s = make_stack(8, 23);
  workload::WorkloadGenerator gen(workload::tiny_spec(), 3);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  const auto scheme = s.sys->add_scheme(gen.scheme(), opt);
  const net::HostIndex h = 0, x = 1, w = 2;
  inject_load(s, scheme, h, s.chord->id_of(x), 120);
  for (net::HostIndex m = 3; m < 8; ++m) {
    inject_load(s, scheme, m, s.chord->id_of(x), 60);
  }
  s.net->kill(w);

  LoadBalancer::Config lc;
  lc.delta = 0.1;
  LoadBalancer lb(*s.sys, lc);
  lb.run_round();

  EXPECT_EQ(lb.migrated_count(), 120u);
  EXPECT_EQ(lb.failed_migrations(), 0u);
  // All that remains at the origin is the surrogate bucket pointer.
  EXPECT_EQ(s.sys->node(h).load(), 1u);
  EXPECT_EQ(s.sys->node(x).load(), 120u);
}

// ---------------------------------------------------------------------------
// Churn delivery: reliable layer strictly beats fire-and-forget
// ---------------------------------------------------------------------------

TEST(ChurnDelivery, ReliableBeatsFireAndForgetWithZeroDuplicates) {
  constexpr std::size_t kHosts = 40;
  constexpr int kSubs = 200;
  constexpr int kEvents = 50;

  auto run = [&](bool reliable) {
    auto s = make_stack(kHosts, 31, reliable);
    workload::WorkloadGenerator gen(workload::table1_spec(), 7);
    core::SchemeOptions opt;
    opt.zone_cfg = {1, 20};
    const auto scheme = s.sys->add_scheme(gen.scheme(), opt);
    Rng rng(41);
    for (int i = 0; i < kSubs; ++i) {
      s.sys->subscribe(net::HostIndex(rng.index(kHosts)), scheme,
                       gen.make_subscription());
    }
    s.sim->run();
    // Kill a third of the network; no repair — stale routing state
    // everywhere, exactly the test_failure kill pattern.
    for (net::HostIndex k = 0; k < kHosts; k += 3) s.chord->fail(k);
    for (int i = 0; i < kEvents; ++i) {
      net::HostIndex pub = net::HostIndex(rng.index(kHosts));
      while (!s.net->alive(pub)) pub = (pub + 1) % kHosts;
      s.sys->publish(pub, scheme, gen.make_event());
    }
    s.sim->run();
    s.sys->finalize_events();
    return s;
  };

  auto baseline = run(false);
  auto rel = run(true);

  // Every recorded delivery reached a live subscriber in both stacks.
  for (const auto& d : rel.sys->deliveries()) {
    EXPECT_TRUE(rel.net->alive(d.subscriber));
  }
  // The reliable stack masks dead intermediate hops that silently swallow
  // whole delivery subtrees in the baseline.
  EXPECT_GT(rel.sys->deliveries().size(), baseline.sys->deliveries().size());

  // Zero duplicate deliveries per (event, subscriber, subscription).
  std::set<std::tuple<std::uint64_t, net::HostIndex, std::uint32_t>> seen;
  for (const auto& d : rel.sys->deliveries()) {
    EXPECT_TRUE(seen.insert({d.event_seq, d.subscriber, d.iid}).second)
        << "duplicate delivery of event " << d.event_seq;
  }

  // The reliability machinery actually engaged, and its counters account
  // for the losses it could not mask.
  const auto c = rel.sys->reliability_counters();
  EXPECT_GT(c.messages_sent, 0u);
  EXPECT_GT(c.retries, 0u);
  EXPECT_GT(c.expirations, 0u);
  const auto b = baseline.sys->reliability_counters();
  EXPECT_EQ(b.messages_sent, 0u);
  EXPECT_EQ(b.retries, 0u);
}

}  // namespace
}  // namespace hypersub
