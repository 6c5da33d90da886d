// Saturated-zone tests. A piece-only zone whose piece is exactly its own
// extent is stored as a code in its zone store's saturated runs instead of
// a ZoneState. The representation must be invisible: the per-zone content
// digest, the delivery sets, the zone invariants, join/leave transfer and
// checkpoint images match a tree of materialized zones, while the zone tree
// shrinks.
// The digest and delivery literals below were taken when both forms still
// ran side by side and agreed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "chord/chord_net.hpp"
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
  int splits_per_dim = 5;  ///< zone tree depth = 2 * splits_per_dim
  std::size_t replicas = 0;
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
  chord::ChordNet::Params cp;
  cp.seed = o.seed;
  s.chord = std::make_unique<chord::ChordNet>(*s.net, cp);
  core::HyperSubSystem::Config sc;
  sc.bootstrap = o.bootstrap;
  sc.replicas = o.replicas;
  s.sys = std::make_unique<core::HyperSubSystem>(*s.chord, sc);
  s.gen = std::make_unique<workload::WorkloadGenerator>(workload::tiny_spec(),
                                                        o.seed + 100);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2, 1, o.splits_per_dim);
  s.scheme = s.sys->add_scheme(s.gen->scheme(), opt);
  return s;
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

/// FNV-1a over a sorted delivery set: a literal pin of who got what.
std::uint64_t delivery_hash(const std::vector<DeliveryRow>& rows) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& [seq, sub, iid] : rows) {
    mix(seq);
    mix(sub);
    mix(iid);
  }
  return h;
}

std::size_t total_saturated(const Stack& s) {
  std::size_t n = 0;
  for (net::HostIndex h = 0; h < s.topo->size(); ++h) {
    n += s.sys->node(h).primary().saturated_count();
  }
  return n;
}

core::HyperSubNode::ZoneMemoryBreakdown total_breakdown(const Stack& s) {
  core::HyperSubNode::ZoneMemoryBreakdown sum{};
  for (net::HostIndex h = 0; h < s.topo->size(); ++h) {
    const auto mb = s.sys->node(h).memory_breakdown();
    sum.materialized_zones += mb.materialized_zones;
    sum.chain_records += mb.chain_records;
    sum.implicit_zones += mb.implicit_zones;
    sum.zone_bytes += mb.zone_bytes;
    sum.chain_bytes += mb.chain_bytes;
    sum.key_index_bytes += mb.key_index_bytes;
    sum.sub_bytes += mb.sub_bytes;
  }
  return sum;
}

// --- digest and delivery pins under churn ----------------------------------

// Randomized subscribe/unsubscribe churn. Every round the semantic zone
// digest (which folds saturated zones in as the ZoneStates they stand for)
// must hit its literal and the invariant audit must pass. Unsubscribes
// shrink summaries, so the rounds move zones between saturated and
// materialized form at whatever levels the workload happens to land on.
struct ChurnPin {
  std::uint64_t seed;
  std::uint64_t install, half_removal, reinstall;  // zone_content_digest
  std::size_t deliveries;
  std::uint64_t delivery_hash;
};
constexpr ChurnPin kChurnPins[] = {
    {3, 0x06f8348f4b5b7c34ull, 0xb5d266eb9131249bull, 0x43b78718171939a7ull,
     102, 0x3785606d254ff225ull},
    {11, 0x32e7aec5e4dafbdbull, 0x25dfca8288a22f8eull, 0x58c0bf51eb780d5eull,
     100, 0x6bc3828a32fd2a26ull},
    {27, 0x4889125c66619fb0ull, 0xe479171934fd6f91ull, 0xc85ee6828b266a5aull,
     83, 0xd03d391dcd93086full},
};

TEST(ZoneCompress, ParityUnderSubscriptionChurn) {
  for (const ChurnPin& pin : kChurnPins) {
    const std::uint64_t seed = pin.seed;
    Stack s = make_stack({.seed = seed});

    Rng rng(seed * 7 + 1);
    std::vector<core::SubscriptionHandle> handles;
    const auto check = [&](const char* where, std::uint64_t digest) {
      EXPECT_TRUE(s.sys->check_zone_invariants()) << where << " seed=" << seed;
      EXPECT_EQ(s.sys->zone_content_digest(), digest)
          << where << " seed=" << seed << std::hex << " digest 0x"
          << s.sys->zone_content_digest();
    };

    // Round 1: dense install.
    for (int i = 0; i < 150; ++i) {
      const net::HostIndex h = net::HostIndex(rng.index(32));
      handles.push_back(
          s.sys->subscribe(h, s.scheme, s.gen->make_subscription()));
    }
    s.sim->run();
    check("install", pin.install);
    EXPECT_GT(total_saturated(s), 0u) << "seed=" << seed;

    // Round 2: remove every other subscription — summaries shrink and
    // saturated zones materialize with partial pieces.
    for (std::size_t i = 0; i < handles.size(); i += 2) {
      s.sys->unsubscribe(handles[i]);
    }
    s.sim->run();
    check("half-removal", pin.half_removal);

    // Round 3: reinstall into the reshaped tree.
    for (int i = 0; i < 60; ++i) {
      const net::HostIndex h = net::HostIndex(rng.index(32));
      handles.push_back(
          s.sys->subscribe(h, s.scheme, s.gen->make_subscription()));
    }
    s.sim->run();
    check("reinstall", pin.reinstall);

    for (int i = 0; i < 20; ++i) {
      const net::HostIndex pub = net::HostIndex(rng.index(32));
      s.sys->publish(pub, s.scheme, s.gen->make_event());
    }
    s.sim->run();
    s.sys->finalize_events();
    const auto rows = delivery_set(s);
    EXPECT_EQ(rows.size(), pin.deliveries) << "seed=" << seed;
    EXPECT_EQ(delivery_hash(rows), pin.delivery_hash)
        << "seed=" << seed << std::hex << " delivery hash 0x"
        << delivery_hash(rows);
  }
}

// Tearing everything down must dissolve the piece skeleton: after the last
// unsubscribe drains, no saturated zone and no piece-bearing ZoneState
// survives.
TEST(ZoneCompress, FullTeardownDissolvesChains) {
  Stack s = make_stack({.seed = 9});
  Rng rng(41);
  std::vector<core::SubscriptionHandle> handles;
  for (int i = 0; i < 100; ++i) {
    const net::HostIndex h = net::HostIndex(rng.index(32));
    handles.push_back(
        s.sys->subscribe(h, s.scheme, s.gen->make_subscription()));
  }
  s.sim->run();
  ASSERT_GT(total_saturated(s), 0u);

  for (const auto& handle : handles) s.sys->unsubscribe(handle);
  s.sim->run();
  EXPECT_TRUE(s.sys->check_zone_invariants());
  EXPECT_EQ(total_saturated(s), 0u);
  // Nothing stored anywhere: the empty fold.
  EXPECT_EQ(s.sys->zone_content_digest(), 0u);
}

// One zone through every form: saturated (its parent's summary covers it),
// materialized with a partial piece, holding a subscription, gone (empty
// piece), and saturated again.
TEST(ZoneCompress, SaturatedZoneWalksThroughEveryForm) {
  Stack s = make_stack({.seed = 7});
  const auto& scheme = s.gen->scheme();
  const auto sub_of = [&](std::vector<pubsub::Predicate> preds) {
    return pubsub::Subscription::from_predicates(scheme, preds);
  };
  // attr0 in [0, 100] and attr1 in [0, 10]: the zone with code 01 at
  // level 2 is attr0 [0, 50] x attr1 [5, 10].
  const core::Subscheme& ss = s.sys->scheme_runtime(s.scheme).subscheme(0);
  const core::ZoneAddr addr{s.scheme, 0, lph::Zone{0b01, 2}};
  const Id key = ss.zone_key(addr.zone);
  const net::HostIndex owner = s.chord->oracle_successor(key).host;
  const auto& nd = s.sys->node(owner);
  const auto check = [&](const char* step, bool saturated, bool materialized,
                         std::uint64_t digest) {
    s.sim->run();
    EXPECT_TRUE(s.sys->check_zone_invariants()) << step;
    EXPECT_EQ(nd.primary().saturated(addr), saturated) << step;
    EXPECT_EQ(nd.zones().contains(addr), materialized) << step;
    EXPECT_EQ(s.sys->zone_content_digest(), digest)
        << step << std::hex << " digest 0x" << s.sys->zone_content_digest();
  };

  // Full: a root subscription over the whole domain saturates every zone.
  // The digests were taken from the chain-format tree and from a tree of
  // materialized zones, which agreed.
  const auto full = s.sys->subscribe(0, s.scheme, sub_of({}));
  check("full", true, false, 0x2baadc7bfb3c121dull);

  // Partial: only attr0 [25, 75] remains at the root.
  const auto part = s.sys->subscribe(1, s.scheme, sub_of({{0, {25.0, 75.0}}}));
  s.sys->unsubscribe(full);
  check("partial", false, true, 0x722ce3f32035bce7ull);
  EXPECT_EQ(nd.zones().at(addr).parent_piece()->first,
            HyperRect(std::vector<Interval>{{25.0, 50.0}, {5.0, 10.0}}));

  // Subscription: straddles the zone's level-3 split, so it lands here.
  const auto here = sub_of({{0, {20.0, 30.0}}, {1, {6.0, 7.0}}});
  ASSERT_EQ(
      lph::hash_subscription(ss.zones(), here.range(), ss.rotation()).zone,
      addr.zone);
  const auto local = s.sys->subscribe(2, s.scheme, here);
  check("subscription", false, true, 0x8b5ff84f5d755959ull);
  EXPECT_EQ(nd.zones().at(addr).subscription_count(), 1u);

  // Empty: nothing covers the zone any more.
  s.sys->unsubscribe(part);
  s.sys->unsubscribe(local);
  check("empty", false, false, 0x0ull);

  // Full again.
  s.sys->subscribe(3, s.scheme, sub_of({}));
  check("full again", true, false, 0xd2114b849adb3964ull);
}

// --- join/leave transfer --------------------------------------------------

// A graceful leave ships the leaver's saturated zones to the successor as
// whole-key rows; a protocol rejoin pulls them back. The host-independent
// content digest must ride through both handovers, and the invariant audit
// must hold at every stop.
TEST(ZoneCompress, JoinLeaveChainTransfer) {
  constexpr net::HostIndex kNode = 9;
  Stack s = make_stack({.seed = 5});
  Rng rng(29);
  for (int i = 0; i < 120; ++i) {
    s.sys->subscribe(net::HostIndex(rng.index(32)), s.scheme,
                     s.gen->make_subscription());
  }
  s.sim->run();
  ASSERT_GT(total_saturated(s), 0u);
  const std::uint64_t d0 = s.sys->zone_content_digest();

  s.sys->leave_node(kNode);
  s.sim->run();
  EXPECT_EQ(s.sys->join_stats().leaves_completed, 1u);
  EXPECT_TRUE(s.sys->check_zone_invariants());
  EXPECT_EQ(s.sys->zone_content_digest(), d0);

  s.chord->start_maintenance();
  s.sys->join_node(kNode, 0);
  s.sim->run_until(s.sim->now() + 30000.0);
  s.chord->stop_maintenance();
  s.sim->run();
  EXPECT_FALSE(s.sys->transfer_active());
  EXPECT_EQ(s.sys->join_stats().joins_committed, 1u);
  EXPECT_GT(s.sys->join_stats().zones_transferred, 0u);
  EXPECT_TRUE(s.sys->check_zone_invariants());
  EXPECT_EQ(s.sys->zone_content_digest(), d0);
}

// --- checkpoint round-trip ------------------------------------------------

// A checkpoint restores into an identical tree: same digest, same
// invariants, and an immediate re-checkpoint of the restored stack
// reproduces the blob byte-for-byte.
TEST(ZoneCompress, CheckpointRoundTrip) {
  const StackOpts base{.seed = 13};
  Stack s = make_stack(base);
  Rng rng(47);
  std::vector<std::pair<net::HostIndex, pubsub::Event>> events;
  for (int i = 0; i < 90; ++i) {
    s.sys->subscribe(net::HostIndex(rng.index(32)), s.scheme,
                     s.gen->make_subscription());
  }
  for (int i = 0; i < 15; ++i) {
    events.emplace_back(net::HostIndex(rng.index(32)), s.gen->make_event());
  }
  s.sim->run();
  ASSERT_GT(total_saturated(s), 0u);
  const auto blob = runner::checkpoint(*s.sys);

  StackOpts ropts = base;
  ropts.bootstrap = core::BootstrapMode::kNone;
  Stack r = make_stack(ropts);
  ASSERT_TRUE(runner::restore(*r.sys, blob));
  EXPECT_TRUE(r.sys->check_zone_invariants());
  EXPECT_EQ(r.sys->zone_content_digest(), s.sys->zone_content_digest());
  EXPECT_EQ(total_saturated(r), total_saturated(s));
  EXPECT_EQ(runner::checkpoint(*r.sys), blob);

  // The restored tree behaves identically under an identical event feed.
  for (const auto& [pub, ev] : events) {
    s.sys->publish(pub, s.scheme, ev);
    r.sys->publish(pub, r.scheme, ev);
  }
  s.sim->run();
  r.sim->run();
  s.sys->finalize_events();
  r.sys->finalize_events();
  EXPECT_EQ(delivery_set(s), delivery_set(r));
}

// --- determinism ------------------------------------------------------------

// The same scripted run twice produces byte-identical checkpoints and
// identical delivery sets.
TEST(ZoneCompress, CompressedRunIsReproducible) {
  std::vector<std::uint8_t> reference;
  std::vector<DeliveryRow> ref_deliveries;
  for (int run = 0; run < 2; ++run) {
    Stack s = make_stack({.seed = 21});
    Rng rng(59);
    std::vector<std::pair<net::HostIndex, pubsub::Subscription>> subs;
    for (int i = 0; i < 70; ++i) {
      subs.emplace_back(net::HostIndex(rng.index(32)),
                        s.gen->make_subscription());
    }
    std::vector<std::pair<net::HostIndex, pubsub::Event>> events;
    for (int i = 0; i < 16; ++i) {
      events.emplace_back(net::HostIndex(rng.index(32)), s.gen->make_event());
    }
    for (const auto& [h, sub] : subs) s.sys->subscribe(h, s.scheme, sub);
    s.sim->run();
    for (std::size_t i = 0; i < events.size(); ++i) {
      const auto& [pub, ev] = events[i];
      s.sim->schedule_at(20000.0 + 5000.0 * double(i),
                         [&s, pub, ev] { s.sys->publish(pub, s.scheme, ev); });
    }
    s.sim->run();
    s.sys->finalize_events();
    EXPECT_GT(total_saturated(s), 0u);
    const auto blob = runner::checkpoint(*s.sys);
    const auto del = delivery_set(s);
    if (reference.empty()) {
      reference = blob;
      ref_deliveries = del;
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(blob, reference);
      EXPECT_EQ(del, ref_deliveries);
    }
  }
}

// --- the memory claim itself ----------------------------------------------

// The saturated tree keeps every zone of the full tree (2047 at depth 10,
// all of them materialized when both forms ran side by side) with the same
// content, and a saturated zone costs less than a ZoneState struct alone.
TEST(ZoneCompress, CompressedTreeIsSmaller) {
  Stack s = make_stack({.seed = 33});
  Rng rng(61);
  for (int i = 0; i < 300; ++i) {
    const net::HostIndex h = net::HostIndex(rng.index(32));
    s.sys->subscribe(h, s.scheme, s.gen->make_subscription());
  }
  s.sim->run();

  const auto mb = total_breakdown(s);
  EXPECT_GT(mb.implicit_zones, 0u);
  EXPECT_EQ(mb.materialized_zones + mb.implicit_zones, 2047u);
  EXPECT_LT(mb.chain_bytes, mb.implicit_zones * sizeof(core::ZoneState));
  EXPECT_EQ(s.sys->zone_content_digest(), 0xfcf03225a2ebd1b6ull)
      << std::hex << "digest 0x" << s.sys->zone_content_digest();
}

}  // namespace
}  // namespace hypersub
