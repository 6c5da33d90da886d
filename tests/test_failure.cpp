// Failure-injection tests: dead rendezvous nodes, publisher crashes,
// dropped messages, and tracker finalization under partial delivery.

#include <gtest/gtest.h>

#include <memory>

#include "chord/chord_net.hpp"
#include "core/hypersub_system.hpp"
#include "net/topology.hpp"
#include "workload/scheme_factory.hpp"
#include "workload/zipf_workload.hpp"

namespace hypersub {
namespace {

struct Stack {
  std::unique_ptr<workload::WorkloadGenerator> gen;
  std::unique_ptr<net::KingLikeTopology> topo;
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<chord::ChordNet> chord;
  std::unique_ptr<core::HyperSubSystem> sys;
};

Stack make_stack(std::size_t n, std::uint64_t seed = 1) {
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
  s.sys = std::make_unique<core::HyperSubSystem>(*s.chord, sc);
  return s;
}

std::uint32_t add_tiny_scheme(Stack& s, std::uint64_t gen_seed,
                              workload::WorkloadGenerator** out_gen) {
  s.gen = std::make_unique<workload::WorkloadGenerator>(
      workload::tiny_spec(), gen_seed);
  *out_gen = s.gen.get();
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  return s.sys->add_scheme(s.gen->scheme(), opt);
}

TEST(Failure, EventToDeadSubscriberIsDroppedSilently) {
  auto s = make_stack(30);
  workload::WorkloadGenerator* gen = nullptr;
  const auto scheme = add_tiny_scheme(s, 3, &gen);
  // Node 5 subscribes to everything, then dies.
  s.sys->subscribe(5, scheme, pubsub::Subscription(gen->scheme().domain()));
  s.sim->run();
  s.chord->fail(5);

  s.sys->publish(9, scheme, gen->make_event());
  s.sim->run();
  s.sys->finalize_events();
  // No delivery, no crash; the event record still exists and is flagged
  // truncated (part of its tree died with the subscriber).
  EXPECT_TRUE(s.sys->deliveries().empty());
  EXPECT_EQ(s.sys->event_metrics().count(), 1u);
  EXPECT_EQ(s.sys->event_metrics().truncated_count(), 1u);
}

TEST(Failure, SuccessorInheritsIdRangeButNotDeliveries) {
  // When a subscriber dies, its id range passes to the successor; the
  // successor must NOT receive the dead node's notifications.
  auto s = make_stack(30, 7);
  workload::WorkloadGenerator* gen = nullptr;
  const auto scheme = add_tiny_scheme(s, 5, &gen);
  s.sys->subscribe(4, scheme, pubsub::Subscription(gen->scheme().domain()));
  s.sim->run();
  s.chord->fail(4);
  // Repair the ring instantly via oracle (the chord tests cover protocol
  // repair; here we isolate the delivery-side check).
  s.chord->oracle_build();

  s.sys->publish(9, scheme, gen->make_event());
  s.sim->run();
  s.sys->finalize_events();
  EXPECT_TRUE(s.sys->deliveries().empty());
}

TEST(Failure, PublisherDiesMidDelivery) {
  auto s = make_stack(40, 9);
  workload::WorkloadGenerator* gen = nullptr;
  const auto scheme = add_tiny_scheme(s, 7, &gen);
  for (net::HostIndex h = 0; h < 40; ++h) {
    s.sys->subscribe(h, scheme,
                     pubsub::Subscription(gen->scheme().domain()));
  }
  s.sim->run();

  s.sys->publish(3, scheme, gen->make_event());
  // Kill the publisher immediately: in-flight messages FROM it still
  // arrive (they left already) but new sends from it are dropped.
  s.chord->fail(3);
  s.sim->run();
  s.sys->finalize_events();
  // The system stays consistent: every recorded delivery is to a live node,
  // and all event trackers were finalized.
  for (const auto& d : s.sys->deliveries()) {
    EXPECT_TRUE(s.net->alive(d.subscriber));
  }
  EXPECT_EQ(s.sys->event_metrics().count(), 1u);
}

TEST(Failure, FinalizeEventsFlushesPartialTrackers) {
  auto s = make_stack(30, 11);
  workload::WorkloadGenerator* gen = nullptr;
  const auto scheme = add_tiny_scheme(s, 9, &gen);
  for (net::HostIndex h = 0; h < 30; ++h) {
    s.sys->subscribe(h, scheme,
                     pubsub::Subscription(gen->scheme().domain()));
  }
  s.sim->run();
  // Kill a third of the network so delivery trees get cut.
  for (net::HostIndex h = 0; h < 30; h += 3) s.chord->fail(h);

  s.sys->publish(1, scheme, gen->make_event());
  s.sim->run();
  // Outstanding counts never hit zero (messages were dropped), so without
  // the flush no record would exist; the record is flagged truncated.
  s.sys->finalize_events();
  EXPECT_EQ(s.sys->event_metrics().count(), 1u);
  EXPECT_EQ(s.sys->event_metrics().truncated_count(), 1u);
  // Flushing twice is harmless.
  s.sys->finalize_events();
  EXPECT_EQ(s.sys->event_metrics().count(), 1u);
}

TEST(Failure, DeliveryContinuesAfterFinalizeDuringChurn) {
  // finalize_events() while messages are still queued must not crash or
  // corrupt later processing (trackers are gone; delivery still proceeds).
  auto s = make_stack(30, 13);
  workload::WorkloadGenerator* gen = nullptr;
  const auto scheme = add_tiny_scheme(s, 11, &gen);
  s.sys->subscribe(8, scheme, pubsub::Subscription(gen->scheme().domain()));
  s.sim->run();

  s.sys->publish(2, scheme, gen->make_event());
  s.sim->run(3);             // a few steps only; messages still in flight
  s.sys->finalize_events();  // force-close the tracker early
  s.sim->run();              // drain the rest
  // The delivery may or may not carry timing (tracker is gone), but it
  // must arrive exactly once and the system must not crash.
  EXPECT_EQ(s.sys->deliveries().size(), 1u);
  EXPECT_EQ(s.sys->deliveries()[0].subscriber, 8u);
}

TEST(Failure, InstallToDeadOwnerIsLost) {
  // If the surrogate node for a subscription's zone is dead and the ring
  // has not repaired, the installation is dropped (paper defers
  // replication to the DHT); the system must not wedge.
  auto s = make_stack(20, 15);
  workload::WorkloadGenerator* gen = nullptr;
  const auto scheme = add_tiny_scheme(s, 13, &gen);
  const auto sub = gen->make_subscription();
  // Find the would-be owner and kill it without repairing.
  const auto& ss = s.sys->scheme_runtime(scheme).subscheme(0);
  const auto key = lph::hash_subscription(ss.zones(), sub.range(),
                                          ss.rotation()).key;
  const auto owner = s.chord->oracle_successor(key);
  s.chord->fail(owner.host);

  s.sys->subscribe((owner.host + 1) % 20, scheme, sub);
  s.sim->run();
  // The subscriber-side count still incremented (it registered locally),
  // but no zone state exists anywhere for the dead owner.
  EXPECT_EQ(s.sys->total_subscriptions(), 1u);
  EXPECT_EQ(s.sys->node(owner.host).zones().size(), 0u);
}

}  // namespace
}  // namespace hypersub
