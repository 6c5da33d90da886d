// Chord DHT tests: ring helpers, routing state, oracle construction with
// and without PNS, lookup correctness, the maintenance protocol (join,
// stabilize, failure recovery).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "chord/chord_net.hpp"
#include "chord/chord_node.hpp"
#include "chord/ring.hpp"
#include "common/stats.hpp"
#include "net/network.hpp"

namespace hypersub::chord {
namespace {

struct Stack {
  std::unique_ptr<net::KingLikeTopology> topo;
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<ChordNet> chord;
};

Stack make_stack(std::size_t n, bool pns = true, std::uint64_t seed = 1) {
  Stack s;
  net::KingLikeTopology::Params tp;
  tp.hosts = n;
  tp.seed = seed;
  s.topo = std::make_unique<net::KingLikeTopology>(tp);
  s.sim = std::make_unique<sim::Simulator>();
  s.net = std::make_unique<net::Network>(*s.sim, *s.topo);
  ChordNet::Params cp;
  cp.pns = pns;
  cp.seed = seed;
  s.chord = std::make_unique<ChordNet>(*s.net, cp);
  return s;
}

// ---------------------------------------------------------------------------
// ring helpers
// ---------------------------------------------------------------------------

TEST(RingHelpers, RandomIdsUnique) {
  Rng rng(3);
  const auto ids = random_ids(1000, rng);
  auto sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(RingHelpers, SuccessorIndex) {
  const std::vector<Id> ids{10, 20, 30};
  EXPECT_EQ(successor_index(ids, 5), 0u);
  EXPECT_EQ(successor_index(ids, 10), 0u);
  EXPECT_EQ(successor_index(ids, 11), 1u);
  EXPECT_EQ(successor_index(ids, 30), 2u);
  EXPECT_EQ(successor_index(ids, 31), 0u);  // wrap
}

// ---------------------------------------------------------------------------
// ChordNode state machine
// ---------------------------------------------------------------------------

TEST(ChordNode, SuccessorListDedupAndCap) {
  ChordNode n(100, 0, 3);
  n.set_successor(NodeRef{200, 1});
  n.set_successor(NodeRef{150, 2});
  EXPECT_EQ(n.successor().id, 150u);
  ASSERT_EQ(n.successor_list().size(), 2u);
  n.set_successor(NodeRef{150, 2});  // idempotent
  EXPECT_EQ(n.successor_list().size(), 2u);
  n.adopt_successor_list(NodeRef{120, 3},
                         {NodeRef{150, 2}, NodeRef{200, 1}, NodeRef{300, 4}});
  EXPECT_EQ(n.successor().id, 120u);
  EXPECT_EQ(n.successor_list().size(), 3u);  // capped
}

TEST(ChordNode, AdoptListSkipsSelf) {
  ChordNode n(100, 0, 4);
  n.adopt_successor_list(NodeRef{200, 1}, {NodeRef{100, 0}, NodeRef{300, 2}});
  ASSERT_EQ(n.successor_list().size(), 2u);
  EXPECT_EQ(n.successor_list()[1].id, 300u);
}

TEST(ChordNode, RemovePeerScrubsEverywhere) {
  ChordNode n(100, 0, 4);
  n.adopt_successor_list(NodeRef{200, 1}, {NodeRef{300, 2}});
  n.set_predecessor(NodeRef{300, 2});
  n.set_finger(5, NodeRef{300, 2});
  n.remove_peer(300);
  EXPECT_EQ(n.successor_list().size(), 1u);
  EXPECT_FALSE(n.predecessor().valid());
  EXPECT_FALSE(n.finger(5).valid());
}

TEST(ChordNode, OwnsUsesPredecessor) {
  ChordNode n(100, 0, 4);
  n.set_predecessor(NodeRef{50, 1});
  EXPECT_TRUE(n.owns(100));
  EXPECT_TRUE(n.owns(51));
  EXPECT_FALSE(n.owns(50));
  EXPECT_FALSE(n.owns(101));
}

TEST(ChordNode, ClosestPrecedingPicksGreatestProgress) {
  ChordNode n(0, 0, 4);
  n.set_finger(10, NodeRef{1 << 10, 1});
  n.set_finger(20, NodeRef{1 << 20, 2});
  n.set_finger(30, NodeRef{1 << 30, 3});
  // Target beyond all fingers: greatest finger wins.
  EXPECT_EQ(n.closest_preceding(Id{1} << 40).id, Id{1} << 30);
  // Target between fingers: the one below it wins.
  EXPECT_EQ(n.closest_preceding((Id{1} << 20) + 5).id, Id{1} << 20);
  // No known node in (self, target): self.
  EXPECT_EQ(n.closest_preceding(5).id, 0u);
}

// The pre-index closest_preceding: a linear scan over the fingers, then the
// successor list, keeping the first entry with strictly more clockwise
// progress inside (id, target). The sorted lookup must match it exactly.
NodeRef scan_closest_preceding(const ChordNode& n, Id target) {
  NodeRef best = n.self();
  Id best_dist = 0;
  const auto consider = [&](const NodeRef& c) {
    if (!c.valid() || c.id == n.id()) return;
    if (!ring::in_open(c.id, n.id(), target)) return;
    const Id d = ring::distance(n.id(), c.id);
    if (d > best_dist) {
      best_dist = d;
      best = c;
    }
  };
  for (int i = 0; i < kIdBits; ++i) consider(n.finger(i));
  for (const auto& c : n.successor_list()) consider(c);
  return best;
}

TEST(ChordNode, ClosestPrecedingMatchesLinearScanUnderChurn) {
  Rng rng(2024);
  for (int ring_no = 0; ring_no < 40; ++ring_no) {
    // A small id pool makes repeats likely: the same id under two hosts
    // (first-seen must win), fingers duplicating successors, and self.
    std::vector<Id> pool = random_ids(6 + rng.index(40), rng);
    const Id self_id = pool[rng.index(pool.size())];
    ChordNode n(self_id, 0, 1 + rng.index(8));
    const auto random_ref = [&] {
      if (rng.index(10) == 0) return NodeRef{};
      return NodeRef{pool[rng.index(pool.size())],
                     net::HostIndex(1 + rng.index(3))};
    };
    const auto check = [&] {
      std::vector<Id> targets = pool;
      targets.push_back(self_id + 1);
      targets.push_back(self_id - 1);
      for (int i = 0; i < 20; ++i) targets.push_back(rng.next_u64());
      for (const Id p : pool) targets.push_back(p + 1);
      for (const Id t : targets) {
        ASSERT_EQ(n.closest_preceding(t), scan_closest_preceding(n, t))
            << "ring " << ring_no << " target " << t;
      }
    };
    for (int i = 0; i < kIdBits; ++i) {
      if (rng.index(2) == 0) n.set_finger(i, random_ref());
    }
    check();
    for (int step = 0; step < 60; ++step) {
      switch (rng.index(6)) {
        case 0:
        case 1:
          n.set_finger(int(rng.index(kIdBits)), random_ref());
          break;
        case 2:
          if (const NodeRef r = random_ref(); r.valid()) n.set_successor(r);
          break;
        case 3: {
          std::vector<NodeRef> rest;
          for (std::size_t i = rng.index(6); i > 0; --i) {
            rest.push_back(random_ref());
          }
          if (const NodeRef r = random_ref(); r.valid()) {
            n.adopt_successor_list(r, rest);
          }
          break;
        }
        case 4:
          n.remove_peer(pool[rng.index(pool.size())]);
          break;
        default:
          if (rng.index(8) == 0) n.reset_routing_state();
          break;
      }
      check();
    }
  }
}

TEST(ChordNode, ClosestPrecedingMatchesLinearScanOnOracleRing) {
  auto s = make_stack(200, /*pns=*/true, 7);
  s.chord->oracle_build();
  Rng rng(9);
  const auto check_all = [&] {
    for (net::HostIndex h = 0; h < 200; ++h) {
      const ChordNode& nd = s.chord->node(h);
      for (int i = 0; i < 30; ++i) {
        const Id key = rng.next_u64();
        ASSERT_EQ(nd.closest_preceding(key), scan_closest_preceding(nd, key));
      }
    }
  };
  check_all();
  // Failure notices scrub a dead peer from every table that knew it.
  for (int k = 0; k < 20; ++k) {
    const Id dead = s.chord->node(rng.index(200)).id();
    for (net::HostIndex h = 0; h < 200; ++h) s.chord->node(h).remove_peer(dead);
  }
  check_all();
}

TEST(ChordNode, NeighborsDedupes) {
  ChordNode n(100, 0, 4);
  n.adopt_successor_list(NodeRef{200, 1}, {NodeRef{300, 2}});
  n.set_finger(1, NodeRef{200, 1});
  n.set_finger(2, NodeRef{400, 3});
  n.set_predecessor(NodeRef{50, 4});
  const auto nb = n.neighbors();
  EXPECT_EQ(nb.size(), 4u);  // 200, 300, 400, 50
}

// ---------------------------------------------------------------------------
// oracle construction + lookup
// ---------------------------------------------------------------------------

TEST(ChordOracle, RingOrderAndOwnership) {
  auto s = make_stack(64);
  s.chord->oracle_build();
  const auto ring = s.chord->oracle_ring();
  ASSERT_EQ(ring.size(), 64u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const ChordNode& nd = s.chord->node(ring[i].host);
    EXPECT_EQ(nd.successor().id, ring[(i + 1) % ring.size()].id);
    EXPECT_EQ(nd.predecessor().id,
              ring[(i + ring.size() - 1) % ring.size()].id);
  }
}

TEST(ChordOracle, FingersPointAtOrAfterStart) {
  auto s = make_stack(64, /*pns=*/false);
  s.chord->oracle_build();
  for (net::HostIndex h = 0; h < 64; ++h) {
    const ChordNode& nd = s.chord->node(h);
    for (int i = 0; i < kIdBits; ++i) {
      const Id start = ring::finger_start(nd.id(), i);
      const NodeRef f = nd.finger(i);
      ASSERT_TRUE(f.valid());
      // Without PNS the finger is exactly the successor of the start.
      EXPECT_EQ(f.id, s.chord->oracle_successor(start).id);
    }
  }
}

TEST(ChordOracle, PnsFingersStayInInterval) {
  auto s = make_stack(128, /*pns=*/true);
  s.chord->oracle_build();
  for (net::HostIndex h = 0; h < 128; h += 17) {
    const ChordNode& nd = s.chord->node(h);
    for (int i = 0; i < kIdBits - 1; ++i) {
      const Id start = ring::finger_start(nd.id(), i);
      const Id next = ring::finger_start(nd.id(), i + 1);
      const NodeRef f = nd.finger(i);
      ASSERT_TRUE(f.valid());
      const NodeRef succ = s.chord->oracle_successor(start);
      if (ring::in_closed_open(succ.id, start, next)) {
        // Candidates existed in the interval; the chosen finger must be one.
        EXPECT_TRUE(ring::in_closed_open(f.id, start, next));
        // And be no farther (in latency) than the plain successor.
        EXPECT_LE(s.topo->latency(h, f.host), s.topo->latency(h, succ.host));
      } else {
        EXPECT_EQ(f.id, succ.id);
      }
    }
  }
}

TEST(ChordLookup, FindsOracleOwner) {
  auto s = make_stack(200);
  s.chord->oracle_build();
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const Id key = rng.next_u64();
    const auto from = net::HostIndex(rng.index(200));
    bool done = false;
    s.chord->route(from, key, 0, [&](const ChordNet::RouteResult& r) {
      done = true;
      EXPECT_EQ(r.owner.id, s.chord->oracle_successor(key).id);
      EXPECT_GE(r.hops, 0);
    });
    s.sim->run();
    EXPECT_TRUE(done);
  }
}

TEST(ChordLookup, HopsAreLogarithmic) {
  auto s = make_stack(512);
  s.chord->oracle_build();
  Rng rng(5);
  Summary hops;
  for (int i = 0; i < 300; ++i) {
    const Id key = rng.next_u64();
    s.chord->route(net::HostIndex(rng.index(512)), key, 0,
                   [&](const ChordNet::RouteResult& r) {
                     hops.add(double(r.hops));
                   });
  }
  s.sim->run();
  EXPECT_EQ(hops.count(), 300u);
  // ~0.5 log2(512) = 4.5 expected; allow generous headroom.
  EXPECT_LT(hops.mean(), 9.0);
  EXPECT_GT(hops.mean(), 2.0);
}

TEST(ChordLookup, KeyOwnedBySourceTakesZeroHops) {
  auto s = make_stack(32);
  s.chord->oracle_build();
  const ChordNode& nd = s.chord->node(0);
  bool done = false;
  s.chord->route(0, nd.id(), 0, [&](const ChordNet::RouteResult& r) {
    done = true;
    EXPECT_EQ(r.hops, 0);
    EXPECT_EQ(r.owner.host, net::HostIndex{0});
  });
  s.sim->run();
  EXPECT_TRUE(done);
}

// ---------------------------------------------------------------------------
// protocol maintenance
// ---------------------------------------------------------------------------

TEST(ChordProtocol, JoinIntegratesNewNode) {
  auto s = make_stack(33);
  // Build the ring over the first 32 hosts only: host 32 starts isolated.
  s.net->kill(32);
  s.chord->oracle_build();
  s.net->revive(32);

  s.chord->join(32, 0);
  s.sim->run_until(s.sim->now() + 100.0);
  s.chord->start_maintenance();
  // A few periods of stabilization should wire host 32 in fully.
  s.sim->run_until(s.sim->now() + 20000.0);

  const auto ring = s.chord->oracle_ring();
  // Successor pointers around host 32 are consistent with the true ring.
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const ChordNode& nd = s.chord->node(ring[i].host);
    EXPECT_EQ(nd.successor().id, ring[(i + 1) % ring.size()].id)
        << "host " << ring[i].host;
  }
}

TEST(ChordProtocol, FailureRepairsSuccessors) {
  auto s = make_stack(48);
  s.chord->oracle_build();
  s.chord->start_maintenance();
  s.sim->run_until(1000.0);

  // Kill 4 nodes; the survivors must converge to the reduced ring.
  for (net::HostIndex h : {3u, 11u, 27u, 40u}) s.chord->fail(h);
  s.sim->run_until(s.sim->now() + 60000.0);

  const auto ring = s.chord->oracle_ring();
  ASSERT_EQ(ring.size(), 44u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const ChordNode& nd = s.chord->node(ring[i].host);
    EXPECT_EQ(nd.successor().id, ring[(i + 1) % ring.size()].id)
        << "host " << ring[i].host;
  }
  // Lookups still reach the correct owners. (run_until, not run():
  // periodic maintenance keeps the event queue non-empty forever.)
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const Id key = rng.next_u64();
    net::HostIndex from = ring[rng.index(ring.size())].host;
    bool done = false;
    s.chord->route(from, key, 0, [&](const ChordNet::RouteResult& r) {
      done = true;
      EXPECT_EQ(r.owner.id, s.chord->oracle_successor(key).id);
    });
    s.sim->run_until(s.sim->now() + 10000.0);
    EXPECT_TRUE(done);
  }
}

class ChordSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChordSizeTest, LookupCorrectAcrossSizes) {
  auto s = make_stack(GetParam(), true, 7);
  s.chord->oracle_build();
  Rng rng(21);
  for (int i = 0; i < 60; ++i) {
    const Id key = rng.next_u64();
    bool done = false;
    s.chord->route(net::HostIndex(rng.index(GetParam())), key, 0,
                   [&](const ChordNet::RouteResult& r) {
                     done = true;
                     EXPECT_EQ(r.owner.id, s.chord->oracle_successor(key).id);
                   });
    s.sim->run();
    EXPECT_TRUE(done);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChordSizeTest,
                         ::testing::Values(2, 3, 8, 64, 300, 1000));

}  // namespace
}  // namespace hypersub::chord

namespace hypersub::chord {
namespace {

// A storm of concurrent protocol joins against a small seed ring must
// converge to a consistent ring (successor pointers exact, lookups land on
// oracle owners).
TEST(ChordProtocol, ConcurrentJoinStormConverges) {
  auto s = make_stack(40, true, 23);
  // Seed ring: first 8 hosts; the other 32 join concurrently.
  for (net::HostIndex h = 8; h < 40; ++h) s.net->kill(h);
  s.chord->oracle_build();
  for (net::HostIndex h = 8; h < 40; ++h) s.net->revive(h);
  s.chord->start_maintenance();

  Rng rng(3);
  for (net::HostIndex h = 8; h < 40; ++h) {
    const auto bootstrap = net::HostIndex(rng.index(8));
    // All joins fire within one stabilization period.
    s.sim->schedule(rng.uniform(0.0, 400.0), [&, h, bootstrap] {
      s.chord->join(h, bootstrap);
    });
  }
  s.sim->run_until(s.sim->now() + 120000.0);

  const auto ring = s.chord->oracle_ring();
  ASSERT_EQ(ring.size(), 40u);
  std::size_t exact = 0;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    if (s.chord->node(ring[i].host).successor().id ==
        ring[(i + 1) % ring.size()].id) {
      ++exact;
    }
  }
  EXPECT_EQ(exact, ring.size());

  for (int i = 0; i < 40; ++i) {
    const Id key = rng.next_u64();
    bool done = false;
    s.chord->route(ring[rng.index(ring.size())].host, key, 0,
                   [&](const ChordNet::RouteResult& r) {
                     done = true;
                     EXPECT_EQ(r.owner.id, s.chord->oracle_successor(key).id);
                   });
    s.sim->run_until(s.sim->now() + 10000.0);
    EXPECT_TRUE(done);
  }
}

// Simultaneous failures and joins: the ring must reconverge to the live
// membership.
TEST(ChordProtocol, MixedChurnConverges) {
  auto s = make_stack(36, true, 29);
  s.net->kill(34);
  s.net->kill(35);
  s.chord->oracle_build();
  s.chord->start_maintenance();
  s.sim->run_until(1000.0);

  s.chord->fail(3);
  s.chord->fail(17);
  s.net->revive(34);
  s.net->revive(35);
  s.chord->join(34, 0);
  s.chord->join(35, 1);
  s.sim->run_until(s.sim->now() + 120000.0);

  const auto ring = s.chord->oracle_ring();
  ASSERT_EQ(ring.size(), 34u);  // 36 - 2 failed (34, 35 joined back)
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(s.chord->node(ring[i].host).successor().id,
              ring[(i + 1) % ring.size()].id)
        << "host " << ring[i].host;
  }
}

}  // namespace
}  // namespace hypersub::chord
