// Path-compressed zone-chain tests. The compressed tree must be an
// invisible representation change: every observable — the per-zone content
// digest (materialized + chain-implicit zones), the delivery sets, the
// zone invariants, join/leave transfer, checkpoint images, and the
// parallel byte-identity contract — matches the uncompressed tree, while
// the zone-tree footprint shrinks.
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
  bool compress = true;
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
  sc.compress_zone_chains = o.compress;
  s.sys = std::make_unique<core::HyperSubSystem>(*s.chord, sc);
  s.gen = std::make_unique<workload::WorkloadGenerator>(workload::tiny_spec(),
                                                        o.seed + 100);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
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

std::size_t total_chains(const Stack& s) {
  std::size_t n = 0;
  for (net::HostIndex h = 0; h < s.topo->size(); ++h) {
    n += s.sys->node(h).chains().size();
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

// --- compressed vs uncompressed parity ------------------------------------

// Randomized subscribe/unsubscribe churn, replayed move-for-move on a
// compressed and an uncompressed stack. Every round the semantic zone
// digest (which folds chain-implicit zones through synthesized
// fingerprints) must agree, and both trees must pass their own invariant
// audits. Unsubscribes shrink summaries, so the rounds exercise chain
// reshape, dissolve, interior split, and opportunistic re-merge — at
// whatever boundary levels the workload happens to land on, across seeds.
TEST(ZoneCompress, ParityUnderSubscriptionChurn) {
  for (const std::uint64_t seed : {3ull, 11ull, 27ull}) {
    Stack on = make_stack({.seed = seed, .compress = true});
    Stack off = make_stack({.seed = seed, .compress = false});

    Rng rng(seed * 7 + 1);
    std::vector<core::SubscriptionHandle> hon, hoff;
    const auto parity = [&](const char* where) {
      EXPECT_TRUE(on.sys->check_zone_invariants()) << where << " seed=" << seed;
      EXPECT_TRUE(off.sys->check_zone_invariants()) << where << " seed=" << seed;
      EXPECT_EQ(on.sys->zone_content_digest(), off.sys->zone_content_digest())
          << where << " seed=" << seed;
    };

    // Round 1: dense install.
    for (int i = 0; i < 150; ++i) {
      const net::HostIndex h = net::HostIndex(rng.index(32));
      const auto sub_on = on.gen->make_subscription();
      const auto sub_off = off.gen->make_subscription();
      hon.push_back(on.sys->subscribe(h, on.scheme, sub_on));
      hoff.push_back(off.sys->subscribe(h, off.scheme, sub_off));
    }
    on.sim->run();
    off.sim->run();
    parity("install");
    EXPECT_GT(total_chains(on), 0u) << "seed=" << seed;
    EXPECT_EQ(total_chains(off), 0u) << "seed=" << seed;

    // Round 2: remove every other subscription — summaries shrink, pieces
    // retract, chains reshape and re-merge.
    for (std::size_t i = 0; i < hon.size(); i += 2) {
      on.sys->unsubscribe(hon[i]);
      off.sys->unsubscribe(hoff[i]);
    }
    on.sim->run();
    off.sim->run();
    parity("half-removal");

    // Round 3: reinstall into the reshaped tree (splits chains again).
    for (int i = 0; i < 60; ++i) {
      const net::HostIndex h = net::HostIndex(rng.index(32));
      const auto sub_on = on.gen->make_subscription();
      const auto sub_off = off.gen->make_subscription();
      hon.push_back(on.sys->subscribe(h, on.scheme, sub_on));
      hoff.push_back(off.sys->subscribe(h, off.scheme, sub_off));
    }
    on.sim->run();
    off.sim->run();
    parity("reinstall");

    // Identical event feed -> identical delivery sets.
    for (int i = 0; i < 20; ++i) {
      const net::HostIndex pub = net::HostIndex(rng.index(32));
      const auto ev_on = on.gen->make_event();
      const auto ev_off = off.gen->make_event();
      on.sys->publish(pub, on.scheme, ev_on);
      off.sys->publish(pub, off.scheme, ev_off);
    }
    on.sim->run();
    off.sim->run();
    on.sys->finalize_events();
    off.sys->finalize_events();
    EXPECT_EQ(delivery_set(on), delivery_set(off)) << "seed=" << seed;
  }
}

// Tearing everything down must dissolve the piece skeleton: after the last
// unsubscribe drains, no chain record (and no piece-bearing materialized
// zone) survives, on either representation.
TEST(ZoneCompress, FullTeardownDissolvesChains) {
  Stack on = make_stack({.seed = 9, .compress = true});
  Stack off = make_stack({.seed = 9, .compress = false});
  Rng rng(41);
  std::vector<core::SubscriptionHandle> hon, hoff;
  for (int i = 0; i < 100; ++i) {
    const net::HostIndex h = net::HostIndex(rng.index(32));
    const auto sub_on = on.gen->make_subscription();
    const auto sub_off = off.gen->make_subscription();
    hon.push_back(on.sys->subscribe(h, on.scheme, sub_on));
    hoff.push_back(off.sys->subscribe(h, off.scheme, sub_off));
  }
  on.sim->run();
  off.sim->run();
  ASSERT_GT(total_chains(on), 0u);

  for (std::size_t i = 0; i < hon.size(); ++i) {
    on.sys->unsubscribe(hon[i]);
    off.sys->unsubscribe(hoff[i]);
  }
  on.sim->run();
  off.sim->run();
  EXPECT_TRUE(on.sys->check_zone_invariants());
  EXPECT_TRUE(off.sys->check_zone_invariants());
  EXPECT_EQ(total_chains(on), 0u);
  EXPECT_EQ(on.sys->zone_content_digest(), off.sys->zone_content_digest());
}

// --- join/leave chain transfer --------------------------------------------

// A graceful leave serializes the leaver's chains (split at movedness run
// boundaries) to the successor; a protocol rejoin pulls them back. The
// host-independent content digest must ride through both handovers, and
// the invariant audit must hold at every stop.
TEST(ZoneCompress, JoinLeaveChainTransfer) {
  constexpr net::HostIndex kNode = 9;
  Stack s = make_stack({.seed = 5, .compress = true});
  Rng rng(29);
  for (int i = 0; i < 120; ++i) {
    s.sys->subscribe(net::HostIndex(rng.index(32)), s.scheme,
                     s.gen->make_subscription());
  }
  s.sim->run();
  ASSERT_GT(total_chains(s), 0u);
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

// A checkpoint taken from a compressed tree restores into an identical
// tree: same digest, same invariants, and an immediate re-checkpoint of
// the restored stack reproduces the blob byte-for-byte.
TEST(ZoneCompress, CheckpointRoundTrip) {
  const StackOpts base{.seed = 13, .compress = true};
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
  ASSERT_GT(total_chains(s), 0u);
  const auto blob = runner::checkpoint(*s.sys);

  StackOpts ropts = base;
  ropts.bootstrap = core::BootstrapMode::kNone;
  Stack r = make_stack(ropts);
  runner::restore(*r.sys, blob);
  EXPECT_TRUE(r.sys->check_zone_invariants());
  EXPECT_EQ(r.sys->zone_content_digest(), s.sys->zone_content_digest());
  EXPECT_EQ(total_chains(r), total_chains(s));
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

// An image written by an uncompressed run (all zones materialized, empty
// chain sections) must restore cleanly into a compression-enabled system:
// the representations interoperate at the wire level, and the restored
// tree still matches the writer's digest.
TEST(ZoneCompress, UncompressedImageRestoresIntoCompressedSystem) {
  const StackOpts wopts{.seed = 17, .compress = false};
  Stack w = make_stack(wopts);
  Rng rng(53);
  for (int i = 0; i < 80; ++i) {
    w.sys->subscribe(net::HostIndex(rng.index(32)), w.scheme,
                     w.gen->make_subscription());
  }
  w.sim->run();
  const auto blob = runner::checkpoint(*w.sys);

  StackOpts ropts{.seed = 17, .compress = true};
  ropts.bootstrap = core::BootstrapMode::kNone;
  Stack r = make_stack(ropts);
  runner::restore(*r.sys, blob);
  EXPECT_TRUE(r.sys->check_zone_invariants());
  EXPECT_EQ(r.sys->zone_content_digest(), w.sys->zone_content_digest());
}

// --- determinism --------------------------------------------------------

// Compression keeps runs reproducible: the same scripted run twice produces
// byte-identical checkpoints and identical delivery sets.
TEST(ZoneCompress, CompressedRunIsReproducible) {
  std::vector<std::uint8_t> reference;
  std::vector<DeliveryRow> ref_deliveries;
  for (int run = 0; run < 2; ++run) {
    Stack s = make_stack({.seed = 21, .compress = true});
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
    EXPECT_GT(total_chains(s), 0u);
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

// Same workload, both representations: the compressed tree must be
// strictly smaller (chain records replace materialized piece-only zones
// and their key-index entries), implicit zones must actually exist, and
// content must agree.
TEST(ZoneCompress, CompressedTreeIsSmaller) {
  Stack on = make_stack({.seed = 33, .compress = true});
  Stack off = make_stack({.seed = 33, .compress = false});
  Rng rng(61);
  for (int i = 0; i < 300; ++i) {
    const net::HostIndex h = net::HostIndex(rng.index(32));
    const auto sub_on = on.gen->make_subscription();
    const auto sub_off = off.gen->make_subscription();
    on.sys->subscribe(h, on.scheme, sub_on);
    off.sys->subscribe(h, off.scheme, sub_off);
  }
  on.sim->run();
  off.sim->run();

  const auto mon = total_breakdown(on);
  const auto moff = total_breakdown(off);
  EXPECT_GT(mon.implicit_zones, 0u);
  EXPECT_EQ(moff.implicit_zones, 0u);
  // Every implicit zone is one materialized zone the uncompressed tree
  // pays full price for.
  EXPECT_EQ(mon.materialized_zones + mon.implicit_zones,
            moff.materialized_zones);
  EXPECT_LT(mon.zone_tree_bytes(), moff.zone_tree_bytes());
  EXPECT_EQ(on.sys->zone_content_digest(), off.sys->zone_content_digest());
}

}  // namespace
}  // namespace hypersub
