// Cross-module integration tests: HyperSub running over a protocol-built
// (not oracle-built) ring, delivery under churn, zone-chain structure on
// real nodes, and the paper's qualitative claims at small scale.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "chord/chord_net.hpp"
#include "core/hypersub_system.hpp"
#include "net/topology.hpp"
#include "workload/scheme_factory.hpp"
#include "workload/zipf_workload.hpp"

namespace hypersub {
namespace {

struct Stack {
  std::unique_ptr<net::KingLikeTopology> topo;
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<chord::ChordNet> chord;
  std::unique_ptr<core::HyperSubSystem> sys;
};

Stack make_stack(std::size_t n, std::uint64_t seed = 1,
                 core::HyperSubSystem::Config sc = {}) {
  Stack s;
  net::KingLikeTopology::Params tp;
  tp.hosts = n;
  tp.seed = seed;
  s.topo = std::make_unique<net::KingLikeTopology>(tp);
  s.sim = std::make_unique<sim::Simulator>();
  s.net = std::make_unique<net::Network>(*s.sim, *s.topo);
  chord::ChordNet::Params cp;
  cp.seed = seed;
  s.chord = std::make_unique<chord::ChordNet>(*s.net, cp);
  s.sys = std::make_unique<core::HyperSubSystem>(*s.chord, sc);
  return s;
}

core::HyperSubSystem::Config oracle_cfg(
    core::HyperSubSystem::Config sc = {}) {
  sc.bootstrap = core::BootstrapMode::kOracle;
  return sc;
}

// Delivery works over a ring assembled purely by the join protocol.
TEST(Integration, DeliveryOverProtocolBuiltRing) {
  auto s = make_stack(24, 3);
  // Host 0 bootstraps alone; everyone else joins through it.
  s.chord->node(0).set_predecessor(s.chord->node(0).self());
  s.chord->node(0).set_successor(s.chord->node(0).self());
  s.chord->start_maintenance();
  for (net::HostIndex h = 1; h < 24; ++h) {
    s.chord->join(h, 0);
    s.sim->run_until(s.sim->now() + 1500.0);
  }
  // Let stabilization converge.
  s.sim->run_until(s.sim->now() + 60000.0);

  // Ring must be consistent with ground truth.
  const auto ring = s.chord->oracle_ring();
  for (std::size_t i = 0; i < ring.size(); ++i) {
    ASSERT_EQ(s.chord->node(ring[i].host).successor().id,
              ring[(i + 1) % ring.size()].id);
  }

  workload::WorkloadGenerator gen(workload::tiny_spec(), 5);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  const auto scheme = s.sys->add_scheme(gen.scheme(), opt);

  std::vector<std::pair<net::HostIndex, pubsub::Subscription>> subs;
  Rng rng(7);
  for (int i = 0; i < 72; ++i) {
    const auto h = net::HostIndex(rng.index(24));
    const auto sub = gen.make_subscription();
    s.sys->subscribe(h, scheme, sub);
    subs.emplace_back(h, sub);
  }
  // Drain installs but keep maintenance timers alive: advance far enough.
  s.sim->run_until(s.sim->now() + 30000.0);

  std::vector<pubsub::Event> events;
  std::vector<std::uint64_t> seqs;
  for (int i = 0; i < 40; ++i) {
    auto e = gen.make_event();
    seqs.push_back(s.sys->publish(net::HostIndex(rng.index(24)), scheme, e));
    events.push_back(e);
  }
  s.sim->run_until(s.sim->now() + 30000.0);
  s.sys->finalize_events();

  std::map<std::uint64_t, std::multiset<std::size_t>> actual;
  for (const auto& d : s.sys->deliveries()) {
    actual[d.event_seq].insert(d.subscriber);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    std::multiset<std::size_t> expected;
    for (const auto& [h, sub] : subs) {
      if (sub.matches(events[i].point)) expected.insert(h);
    }
    EXPECT_EQ(actual[seqs[i]], expected) << "event " << i;
  }
}

// Surrogate-subscription chains: the piece stored at an event's leaf zone
// leads, zone by zone, to every ancestor holding a covering subscription.
TEST(Integration, ZoneChainsReachCoveringSubscriptions) {
  auto s = make_stack(30, 9, oracle_cfg());
  workload::WorkloadGenerator gen(workload::tiny_spec(), 11);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  opt.rotate = false;
  const auto scheme = s.sys->add_scheme(gen.scheme(), opt);

  // A wide subscription living in a shallow zone.
  const pubsub::Predicate p{0, {20.0, 80.0}};
  const auto sub =
      pubsub::Subscription::from_predicates(gen.scheme(), std::span(&p, 1));
  s.sys->subscribe(3, scheme, sub);
  s.sim->run();

  // Its covering zone is shallow.
  const auto& rt = s.sys->scheme_runtime(scheme);
  const auto& ss = rt.subscheme(0);
  const auto lr = lph::hash_subscription(ss.zones(), sub.range(), 0);
  EXPECT_LT(lr.zone.level, 4);

  // An event inside the subscription: its leaf zone's surrogate node must
  // hold a piece chain (parent pointer present at the leaf) — either as a
  // materialized zone or as a saturated zone (its piece is its extent).
  pubsub::Event e{0, {50.0, 5.0}};
  const auto le = lph::hash_event(ss.zones(), e.point, 0);
  const auto owner = s.chord->oracle_successor(le.key);
  const auto& nd = s.sys->node(owner.host);
  const core::ZoneAddr leaf{scheme, 0, le.zone};
  const auto it = nd.zones().find(leaf);
  const bool has_piece =
      (it != nd.zones().end() && it->second.has_parent_piece()) ||
      nd.primary().saturated(leaf);
  EXPECT_TRUE(has_piece) << "leaf zone has no state: chain is broken";

  // And the delivery actually happens.
  s.sys->publish(7, scheme, e);
  s.sim->run();
  s.sys->finalize_events();
  ASSERT_EQ(s.sys->deliveries().size(), 1u);
  EXPECT_EQ(s.sys->deliveries()[0].subscriber, 3u);
}

// Node failures during the event phase: deliveries to live subscribers
// keep flowing once the ring repairs.
TEST(Integration, DeliveryAfterFailuresAndRepair) {
  auto s = make_stack(40, 13, oracle_cfg());
  s.chord->start_maintenance();
  workload::WorkloadGenerator gen(workload::tiny_spec(), 15);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  const auto scheme = s.sys->add_scheme(gen.scheme(), opt);

  // Every node subscribes to everything: deliveries are easy to count.
  for (net::HostIndex h = 0; h < 40; ++h) {
    s.sys->subscribe(h, scheme, pubsub::Subscription(gen.scheme().domain()));
  }
  s.sim->run_until(s.sim->now() + 20000.0);

  // Kill three nodes and let the ring repair.
  s.chord->fail(8);
  s.chord->fail(21);
  s.chord->fail(33);
  s.sim->run_until(s.sim->now() + 90000.0);

  const auto before = s.sys->deliveries().size();
  s.sys->publish(0, scheme, gen.make_event());
  s.sim->run_until(s.sim->now() + 60000.0);
  s.sys->finalize_events();
  const std::size_t got = s.sys->deliveries().size() - before;

  // All 37 live subscribers should be reachable. Subscriptions that were
  // STORED on the dead nodes are lost (the paper defers replication to the
  // DHT layer), so allow a small shortfall — but the bulk must arrive.
  EXPECT_GE(got, 30u);
  EXPECT_LE(got, 37u);
  for (const auto& d : s.sys->deliveries()) {
    EXPECT_NE(d.subscriber, 8u);
    EXPECT_NE(d.subscriber, 21u);
    EXPECT_NE(d.subscriber, 33u);
  }
}

// Multi-scheme rotation: the same zone structure of two schemes must land
// on different nodes when rotation is on.
TEST(Integration, RotationSpreadsSchemesAcrossNodes) {
  auto s = make_stack(50, 17, oracle_cfg());
  auto spec_a = workload::tiny_spec();
  spec_a.scheme_name = "alpha";
  auto spec_b = workload::tiny_spec();
  spec_b.scheme_name = "beta";
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  opt.rotate = true;

  const auto& zs = lph::ZoneSystem(workload::make_scheme(spec_a).domain(),
                                   {1, 20});
  const auto root_key_a =
      lph::zone_key(zs, zs.root(), lph::rotation_offset("alpha#0"));
  const auto root_key_b =
      lph::zone_key(zs, zs.root(), lph::rotation_offset("beta#0"));
  EXPECT_NE(s.chord->oracle_successor(root_key_a).id,
            s.chord->oracle_successor(root_key_b).id)
      << "rotation failed to separate the schemes' root zones";
}

}  // namespace
}  // namespace hypersub
