// Replication extension tests: zone state survives surrogate-node failure
// when replicas > 0, on both substrates; no duplicate deliveries while the
// primary is alive; unsubscription reaches the replicas.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "chord/chord_net.hpp"
#include "core/hypersub_system.hpp"
#include "net/topology.hpp"
#include "pastry/pastry_net.hpp"
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

Stack make_stack(std::size_t n, std::size_t replicas, std::uint64_t seed) {
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
  core::HyperSubSystem::Config sc;
  sc.bootstrap = core::BootstrapMode::kOracle;
  sc.replicas = replicas;
  s.sys = std::make_unique<core::HyperSubSystem>(*s.chord, sc);
  return s;
}

TEST(Replication, NoDuplicatesWhilePrimaryAlive) {
  auto s = make_stack(40, 2, 3);
  workload::WorkloadGenerator gen(workload::table1_spec(), 5);
  core::SchemeOptions opt;
  opt.zone_cfg = {1, 20};
  const auto scheme = s.sys->add_scheme(gen.scheme(), opt);

  std::vector<std::pair<net::HostIndex, pubsub::Subscription>> subs;
  Rng rng(7);
  for (int i = 0; i < 150; ++i) {
    const auto h = net::HostIndex(rng.index(40));
    const auto sub = gen.make_subscription();
    s.sys->subscribe(h, scheme, sub);
    subs.emplace_back(h, sub);
  }
  s.sim->run();

  for (int i = 0; i < 60; ++i) {
    const auto e = gen.make_event();
    const std::size_t before = s.sys->deliveries().size();
    s.sys->publish(net::HostIndex(rng.index(40)), scheme, e);
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

TEST(Replication, SubscriptionsSurviveSurrogateFailure) {
  // Without replication this exact scenario loses the subscription
  // (Failure.InstallToDeadOwnerIsLost shows the flip side).
  auto s = make_stack(40, 2, 9);
  workload::WorkloadGenerator gen(workload::tiny_spec(), 7);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  const auto scheme = s.sys->add_scheme(gen.scheme(), opt);

  // A match-all subscription whose covering zone is the root.
  const pubsub::Subscription all(gen.scheme().domain());
  s.sys->subscribe(6, scheme, all);
  s.sim->run();

  // Find and kill the surrogate node of the root zone, then repair the
  // ring instantly (protocol repair is covered by the chord tests).
  const auto& ss = s.sys->scheme_runtime(scheme).subscheme(0);
  const auto key =
      lph::hash_subscription(ss.zones(), all.range(), ss.rotation()).key;
  const auto owner = s.chord->oracle_successor(key);
  ASSERT_NE(owner.host, 6u) << "test assumes subscriber != surrogate";
  s.chord->fail(owner.host);
  s.chord->oracle_build();

  s.sys->publish(11, scheme, gen.make_event());
  s.sim->run();
  s.sys->finalize_events();
  ASSERT_EQ(s.sys->deliveries().size(), 1u)
      << "replica failed to take over the dead surrogate's zone";
  EXPECT_EQ(s.sys->deliveries()[0].subscriber, 6u);
}

TEST(Replication, WholeChainSurvivesFailureUnderTableWorkload) {
  auto s = make_stack(50, 3, 11);
  workload::WorkloadGenerator gen(workload::table1_spec(), 13);
  core::SchemeOptions opt;
  opt.zone_cfg = {1, 20};
  const auto scheme = s.sys->add_scheme(gen.scheme(), opt);

  std::vector<std::pair<net::HostIndex, pubsub::Subscription>> subs;
  Rng rng(15);
  for (int i = 0; i < 200; ++i) {
    const auto h = net::HostIndex(rng.index(50));
    const auto sub = gen.make_subscription();
    s.sys->subscribe(h, scheme, sub);
    subs.emplace_back(h, sub);
  }
  s.sim->run();

  // Kill three surrogate-heavy nodes (not subscribers' own state — their
  // local repos matter only for unsubscribe) and repair.
  const auto loads = s.sys->node_loads();
  std::vector<net::HostIndex> by_load(50);
  for (net::HostIndex h = 0; h < 50; ++h) by_load[h] = h;
  std::sort(by_load.begin(), by_load.end(),
            [&](auto a, auto b) { return loads[a] > loads[b]; });
  std::set<net::HostIndex> dead;
  for (int k = 0; k < 3; ++k) {
    s.chord->fail(by_load[k]);
    dead.insert(by_load[k]);
  }
  s.chord->oracle_build();

  std::size_t expected = 0, got = 0;
  for (int i = 0; i < 40; ++i) {
    const auto e = gen.make_event();
    const std::size_t before = s.sys->deliveries().size();
    net::HostIndex pub;
    do {
      pub = net::HostIndex(rng.index(50));
    } while (dead.count(pub));
    s.sys->publish(pub, scheme, e);
    s.sim->run();
    for (const auto& [h, sub] : subs) {
      if (!dead.count(h) && sub.matches(e.point)) ++expected;
    }
    got += s.sys->deliveries().size() - before;
  }
  // With 3 replicas and 3 failures, live subscribers keep receiving
  // everything (replica sets of distinct nodes rarely all die together).
  EXPECT_EQ(got, expected);
}

// Piece-only zones (a parent piece and nothing else) relay events up the
// zone tree, so losing one cuts off every subscription above it. Killing
// the hosts that hold the most of them must leave deliveries exactly at
// brute force: their heirs hold replicas of those zones too.
TEST(Replication, PieceOnlyZonesSurviveFailure) {
  constexpr std::size_t kHosts = 40;
  auto s = make_stack(kHosts, 2, 25);
  workload::WorkloadGenerator gen(workload::table1_spec(), 27);
  core::SchemeOptions opt;
  opt.zone_cfg = {1, 12};
  const auto scheme = s.sys->add_scheme(gen.scheme(), opt);

  std::vector<std::pair<net::HostIndex, pubsub::Subscription>> subs;
  Rng rng(29);
  for (int i = 0; i < 150; ++i) {
    const auto h = net::HostIndex(rng.index(kHosts));
    const auto sub = gen.make_subscription();
    s.sys->subscribe(h, scheme, sub);
    subs.emplace_back(h, sub);
  }
  s.sim->run();

  // Piece-only zones per host, in either form: a ZoneState holding only a
  // parent piece, or a saturated bit.
  std::vector<std::size_t> piece_only(kHosts);
  for (net::HostIndex h = 0; h < kHosts; ++h) {
    const auto& nd = s.sys->node(h);
    piece_only[h] = nd.primary().saturated_count();
    for (const auto& [addr, z] : nd.zones()) {
      if (z.subscription_count() == 0 && z.buckets().empty() &&
          z.has_parent_piece() && !z.parent_piece()->first.empty()) {
        ++piece_only[h];
      }
    }
  }
  std::vector<net::HostIndex> by_count(kHosts);
  for (net::HostIndex h = 0; h < kHosts; ++h) by_count[h] = h;
  std::sort(by_count.begin(), by_count.end(), [&](auto a, auto b) {
    return piece_only[a] != piece_only[b] ? piece_only[a] > piece_only[b]
                                          : a < b;
  });
  ASSERT_GT(piece_only[by_count[0]], 0u);
  // Replicas keep the saturated form too: the heirs of the hosts about to
  // die hold bits in their replica stores.
  for (int k = 0; k < 3; ++k) {
    for (const auto& heir : s.chord->replica_set(by_count[std::size_t(k)], 2)) {
      EXPECT_GT(s.sys->node(heir.host).replicas().saturated_count(), 0u)
          << "heir " << heir.host;
    }
  }
  std::set<net::HostIndex> dead;
  for (int k = 0; k < 3; ++k) {
    s.chord->fail(by_count[std::size_t(k)]);
    dead.insert(by_count[std::size_t(k)]);
  }
  s.chord->oracle_build();

  for (int i = 0; i < 40; ++i) {
    const auto e = gen.make_event();
    const std::size_t before = s.sys->deliveries().size();
    net::HostIndex pub;
    do {
      pub = net::HostIndex(rng.index(kHosts));
    } while (dead.count(pub));
    s.sys->publish(pub, scheme, e);
    s.sim->run();
    std::multiset<std::size_t> got, expect;
    for (std::size_t d = before; d < s.sys->deliveries().size(); ++d) {
      got.insert(s.sys->deliveries()[d].subscriber);
    }
    for (const auto& [h, sub] : subs) {
      if (!dead.count(h) && sub.matches(e.point)) expect.insert(h);
    }
    EXPECT_EQ(got, expect) << "event " << i;
  }
}

TEST(Replication, UnsubscribeReachesReplicas) {
  auto s = make_stack(30, 2, 17);
  workload::WorkloadGenerator gen(workload::tiny_spec(), 19);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  const auto scheme = s.sys->add_scheme(gen.scheme(), opt);
  const pubsub::Subscription all(gen.scheme().domain());
  const auto handle = s.sys->subscribe(4, scheme, all);
  s.sim->run();
  s.sys->unsubscribe(handle);
  s.sim->run();

  // Kill the surrogate AFTER the unsubscribe: the replica must not
  // resurrect the removed subscription.
  const auto& ss = s.sys->scheme_runtime(scheme).subscheme(0);
  const auto key =
      lph::hash_subscription(ss.zones(), all.range(), ss.rotation()).key;
  s.chord->fail(s.chord->oracle_successor(key).host);
  s.chord->oracle_build();

  s.sys->publish(9, scheme, gen.make_event());
  s.sim->run();
  s.sys->finalize_events();
  EXPECT_TRUE(s.sys->deliveries().empty());
}

TEST(Replication, PastrySubstrateToo) {
  net::KingLikeTopology::Params tp;
  tp.hosts = 40;
  tp.seed = 21;
  net::KingLikeTopology topo(tp);
  sim::Simulator sim;
  net::Network net(sim, topo);
  pastry::PastryNet pastry(net, {});
  pastry.oracle_build();
  core::HyperSubSystem::Config sc;
  sc.replicas = 2;
  core::HyperSubSystem sys(pastry, sc);

  workload::WorkloadGenerator gen(workload::tiny_spec(), 23);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  const auto scheme = sys.add_scheme(gen.scheme(), opt);
  const pubsub::Subscription all(gen.scheme().domain());
  sys.subscribe(5, scheme, all);
  sim.run();

  const auto& ss = sys.scheme_runtime(scheme).subscheme(0);
  const auto key =
      lph::hash_subscription(ss.zones(), all.range(), ss.rotation()).key;
  const auto owner = pastry.oracle_owner(key);
  ASSERT_NE(owner.host, 5u);
  net.kill(owner.host);
  pastry.oracle_build();

  sys.publish(9, scheme, gen.make_event());
  sim.run();
  sys.finalize_events();
  ASSERT_EQ(sys.deliveries().size(), 1u);
  EXPECT_EQ(sys.deliveries()[0].subscriber, 5u);
}

}  // namespace
}  // namespace hypersub
