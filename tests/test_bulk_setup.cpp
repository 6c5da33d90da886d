// Bulk (oracle) setup parity: HyperSubSystem::bulk_subscribe must leave
// the system in the same state a fully drained subscribe() cascade
// reaches — same handles, same loads, same zone summaries and parent
// pieces, same subscription sets, same deliveries for the same events —
// and its result must be independent of the setup thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "chord/chord_net.hpp"
#include "common/rng.hpp"
#include "common/wire.hpp"
#include "core/hypersub_system.hpp"
#include "metrics/snapshot.hpp"
#include "net/topology.hpp"
#include "pastry/pastry_net.hpp"
#include "workload/scheme_factory.hpp"
#include "workload/zipf_workload.hpp"

namespace hypersub {
namespace {

using core::HyperSubSystem;
using core::SubscriptionHandle;

constexpr std::size_t kHosts = 48;
constexpr std::size_t kSubs = 400;
constexpr std::uint64_t kSeed = 7;

struct Stack {
  net::KingLikeTopology topo;
  sim::Simulator sim;
  net::Network net;
  chord::ChordNet chord;
  HyperSubSystem sys;
  std::uint32_t scheme;

  static net::KingLikeTopology::Params topo_params() {
    net::KingLikeTopology::Params tp;
    tp.hosts = kHosts;
    tp.seed = kSeed;
    return tp;
  }
  static chord::ChordNet::Params chord_params() {
    chord::ChordNet::Params cp;
    cp.seed = kSeed;
    return cp;
  }

  static pubsub::Scheme table1_scheme() {
    return workload::WorkloadGenerator(workload::table1_spec(), kSeed + 1)
        .scheme();
  }

  explicit Stack(HyperSubSystem::Config cfg = {},
                 pubsub::Scheme content = table1_scheme(),
                 lph::ZoneSystem::Config zones = {1, 20},
                 std::vector<std::vector<std::size_t>> subschemes = {})
      : topo(topo_params()),
        net(sim, topo),
        chord(net, chord_params()),
        sys(chord, (cfg.bootstrap = core::BootstrapMode::kOracle, cfg)) {
    core::SchemeOptions opt;
    opt.zone_cfg = zones;
    opt.subschemes = std::move(subschemes);
    scheme = sys.add_scheme(std::move(content), opt);
  }
};

std::vector<HyperSubSystem::BulkSub> make_batch() {
  workload::WorkloadGenerator gen(workload::table1_spec(), kSeed + 1);
  (void)gen.scheme();  // keep the generator aligned with Stack's draw order
  Rng rng(kSeed + 2);
  std::vector<HyperSubSystem::BulkSub> batch;
  for (std::size_t i = 0; i < kSubs; ++i) {
    batch.push_back(
        {net::HostIndex(rng.index(kHosts)), gen.make_subscription()});
  }
  return batch;
}

std::vector<SubscriptionHandle> install_simulated(Stack& s) {
  std::vector<SubscriptionHandle> handles;
  for (auto& b : make_batch()) {
    handles.push_back(s.sys.subscribe(b.subscriber, s.scheme, b.sub));
  }
  s.sim.run();
  return handles;
}

/// Canonical rendering of every zone's durable content — owner host, zone
/// address, summary, parent piece, and the (order-insensitive) set of
/// stored subscriptions — for whole-system equality checks.
std::string zone_fingerprint(const HyperSubSystem& sys) {
  std::map<std::string, std::string> rows;  // sorted, order-insensitive
  for (net::HostIndex h = 0; h < kHosts; ++h) {
    for (const auto& [addr, z] : sys.node(h).zones()) {
      std::string key = std::to_string(h) + "/" + std::to_string(addr.scheme) +
                        "." + std::to_string(addr.subscheme) + "." +
                        std::to_string(addr.zone.code) + "@" +
                        std::to_string(addr.zone.level);
      std::string row;
      const auto rect = [](const HyperRect& r) {
        std::string s = "[";
        for (const auto& iv : r.dims()) {
          s += std::to_string(iv.lo) + ":" + std::to_string(iv.hi) + ",";
        }
        return s + "]";
      };
      row += "summary=" + rect(z.summary());
      if (z.parent_piece()) {
        row += " piece=" + rect(z.parent_piece()->first) + "/" +
               std::to_string(z.parent_piece()->second);
      }
      std::multiset<std::string> subs;
      for (const auto& s : z.subscriptions()) {
        subs.insert(std::to_string(s.owner.target) + "#" +
                    std::to_string(s.owner.iid));
      }
      row += " subs={";
      for (const auto& s : subs) row += s + ",";
      row += "}";
      rows[std::move(key)] = std::move(row);
    }
  }
  std::string out;
  for (const auto& [k, v] : rows) out += k + " " + v + "\n";
  return out;
}

std::multiset<std::pair<std::size_t, std::uint32_t>> deliver_events(
    Stack& s, int events) {
  workload::WorkloadGenerator gen(workload::table1_spec(), kSeed + 3);
  std::multiset<std::pair<std::size_t, std::uint32_t>> got;
  Rng rng(kSeed + 4);
  for (int e = 0; e < events; ++e) {
    s.sys.publish(net::HostIndex(rng.index(kHosts)), s.scheme,
                  gen.make_event());
  }
  s.sim.run();
  s.sys.finalize_events();
  for (const auto& d : s.sys.deliveries()) {
    got.insert({d.subscriber, d.iid});
  }
  return got;
}

TEST(BulkSetup, MatchesSimulatedInstallState) {
  Stack simulated;
  const auto sim_handles = install_simulated(simulated);

  Stack bulk;
  const auto bulk_handles = bulk.sys.bulk_subscribe(bulk.scheme, make_batch());

  EXPECT_EQ(sim_handles, bulk_handles);
  EXPECT_EQ(simulated.sys.total_subscriptions(),
            bulk.sys.total_subscriptions());
  EXPECT_EQ(simulated.sys.node_loads(), bulk.sys.node_loads());
  EXPECT_EQ(simulated.sys.node_stored_entries(),
            bulk.sys.node_stored_entries());
  EXPECT_EQ(zone_fingerprint(simulated.sys), zone_fingerprint(bulk.sys));
  EXPECT_TRUE(bulk.sys.check_zone_invariants());

  // Same events reach the same subscribers through both setups.
  EXPECT_EQ(deliver_events(simulated, 20), deliver_events(bulk, 20));
}

TEST(BulkSetup, ThreadCountInvariant) {
  Stack one;
  Stack four;
  const auto h1 = one.sys.bulk_subscribe(one.scheme, make_batch(), 1);
  const auto h4 = four.sys.bulk_subscribe(four.scheme, make_batch(), 4);
  EXPECT_EQ(h1, h4);
  EXPECT_EQ(one.sys.node_loads(), four.sys.node_loads());
  EXPECT_EQ(zone_fingerprint(one.sys), zone_fingerprint(four.sys));

  // Byte-identical behavior downstream: the same event feed produces the
  // same delivery log in the same order and the same metrics snapshot.
  deliver_events(one, 20);
  deliver_events(four, 20);
  ASSERT_EQ(one.sys.deliveries().size(), four.sys.deliveries().size());
  for (std::size_t i = 0; i < one.sys.deliveries().size(); ++i) {
    const auto& a = one.sys.deliveries()[i];
    const auto& b = four.sys.deliveries()[i];
    EXPECT_EQ(a.subscriber, b.subscriber) << "row " << i;
    EXPECT_EQ(a.iid, b.iid) << "row " << i;
    EXPECT_EQ(a.event_seq, b.event_seq) << "row " << i;
  }
  EXPECT_EQ(metrics::snapshot(one.sys).to_json(),
            metrics::snapshot(four.sys).to_json());
}

/// Form-invariant digest of host `h`'s replica store: a commutative fold of
/// one hash per zone that stores something — address, summary, parent
/// piece and subscription set — with each saturated zone folded in as the
/// piece-only zone it stands for. Husks are skipped, and so are cached
/// child pieces: replicas never propagate, so their caches are not kept up.
std::uint64_t replica_digest(const HyperSubSystem& sys, net::HostIndex h) {
  using core::splitmix64;
  const auto mix_rect = [](std::uint64_t x, const HyperRect& r) {
    for (const auto& iv : r.dims()) {
      x = splitmix64(x ^ std::bit_cast<std::uint64_t>(iv.lo));
      x = splitmix64(x ^ std::bit_cast<std::uint64_t>(iv.hi));
    }
    return x;
  };
  const auto row = [&](const core::ZoneAddr& a, const HyperRect& summary,
                       const HyperRect& piece, Id parent_key,
                       std::uint64_t subs) {
    std::uint64_t x = splitmix64(a.zone.code ^ (std::uint64_t(a.scheme) << 40) ^
                                 (std::uint64_t(a.subscheme) << 8) ^
                                 std::uint64_t(a.zone.level));
    x = mix_rect(splitmix64(x ^ parent_key), piece);
    return splitmix64(mix_rect(x, summary) ^ subs);
  };
  const core::ZoneStore& store = sys.node(h).replicas();
  std::uint64_t acc = 0;
  for (const auto& [addr, z] : store.zones()) {
    const bool has_piece =
        z.has_parent_piece() && !z.parent_piece()->first.empty();
    if (z.subscription_count() == 0 && !has_piece) continue;  // husk
    std::uint64_t subs = 0;  // order-insensitive
    for (const auto& s : z.subscriptions()) {
      subs += splitmix64(s.owner.target ^ (std::uint64_t(s.owner.iid) << 32));
    }
    acc += has_piece ? row(addr, z.summary(), z.parent_piece()->first,
                           z.parent_piece()->second, subs)
                     : row(addr, z.summary(), HyperRect{}, 0, subs);
  }
  store.for_each_saturated([&](const core::ZoneAddr& addr, Id) {
    const core::Subscheme& ss =
        sys.scheme_runtime(addr.scheme).subscheme(addr.subscheme);
    const lph::ZoneSystem& zsys = ss.zones();
    const HyperRect ext = zsys.extent(addr.zone);
    acc += row(addr, ext, ext,
               lph::zone_key(zsys, zsys.parent(addr.zone), ss.rotation()), 0);
  });
  return acc;
}

TEST(BulkSetup, ReplicasMirrored) {
  HyperSubSystem::Config cfg;
  cfg.replicas = 2;
  Stack simulated(cfg);
  install_simulated(simulated);

  Stack bulk(cfg);
  bulk.sys.bulk_subscribe(bulk.scheme, make_batch(), 3);

  for (net::HostIndex h = 0; h < kHosts; ++h) {
    EXPECT_EQ(replica_digest(simulated.sys, h), replica_digest(bulk.sys, h))
        << "host " << h;
  }
  EXPECT_EQ(simulated.sys.node_loads(), bulk.sys.node_loads());
  EXPECT_TRUE(bulk.sys.check_zone_invariants());
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

// The checkpoint image of a bulk set-up, pinned to what the per-insert
// index builds and the all-geometry cascade left: building each zone's
// index once and saturating children without rectangles must not move a
// byte, the per-zone index flags included (threshold 4 indexes many zones).
// Wire v4 moved the pins: the images differ from the v3 ones only in the
// version word and each node's empty replica-mask row count.
TEST(BulkSetup, CheckpointImagePinned) {
  const std::pair<std::size_t, std::uint64_t> cases[] = {
      {core::ZoneState::kDefaultIndexThreshold, 0x47e14cf19d1c7386ull},
      {4, 0xdb87a666249a9c9cull},
  };
  for (const auto& [threshold, pinned] : cases) {
    HyperSubSystem::Config cfg;
    cfg.match_index_threshold = threshold;
    Stack s(cfg);
    s.sys.bulk_subscribe(s.scheme, make_batch(), 2);
    common::ByteWriter w;
    s.sys.save_state(w);
    EXPECT_EQ(fnv1a(w.data()), pinned)
        << "threshold " << threshold << std::hex << ": image 0x"
        << fnv1a(w.data());
  }
}

// Domain bounds whose halving rounds: [0.1, 0.7] and [0, 1/3]. A child's
// interval can then reach past its parent's, so the cascade takes clip()
// for it instead of the geometry-free bit; the result must still be what
// routed installs converge to, and independent of the thread count.
pubsub::Scheme non_dyadic_scheme() {
  return pubsub::Scheme("odd", {{"x", Interval{0.1, 0.7}},
                                {"y", Interval{0.0, 1.0 / 3.0}}});
}

std::vector<HyperSubSystem::BulkSub> non_dyadic_batch() {
  const pubsub::Scheme scheme = non_dyadic_scheme();
  Rng rng(kSeed + 5);
  std::vector<HyperSubSystem::BulkSub> batch;
  for (std::size_t i = 0; i < 300; ++i) {
    std::vector<Interval> dims;
    for (std::size_t d = 0; d < scheme.arity(); ++d) {
      const Interval dom = scheme.attribute(d).domain;
      // One in eight spans the attribute, so summaries hull up to the
      // domain and the cascade reaches every zone.
      if (rng.chance(0.125)) {
        dims.push_back(dom);
        continue;
      }
      const double a = rng.uniform(dom.lo, dom.hi);
      const double b = std::min(dom.hi, a + rng.uniform(0.0, dom.length() / 4));
      dims.push_back(Interval{a, b});
    }
    batch.push_back({net::HostIndex(rng.index(kHosts)),
                     pubsub::Subscription(HyperRect(std::move(dims)))});
  }
  return batch;
}

std::vector<SubscriptionHandle> install_routed(
    Stack& s, std::vector<HyperSubSystem::BulkSub> batch) {
  std::vector<SubscriptionHandle> handles;
  for (auto& b : batch) {
    handles.push_back(s.sys.subscribe(b.subscriber, s.scheme, b.sub));
  }
  s.sim.run();
  return handles;
}

std::vector<std::pair<std::size_t, std::uint32_t>> deliver_points(
    Stack& s, int events) {
  const pubsub::Scheme scheme = non_dyadic_scheme();
  Rng rng(kSeed + 6);
  for (int e = 0; e < events; ++e) {
    pubsub::Event ev;
    for (std::size_t d = 0; d < scheme.arity(); ++d) {
      const Interval dom = scheme.attribute(d).domain;
      ev.point.push_back(rng.uniform(dom.lo, dom.hi));
    }
    s.sys.publish(net::HostIndex(rng.index(kHosts)), s.scheme, ev);
  }
  s.sim.run();
  s.sys.finalize_events();
  std::vector<std::pair<std::size_t, std::uint32_t>> got;
  for (const auto& d : s.sys.deliveries()) got.push_back({d.subscriber, d.iid});
  return got;
}

TEST(BulkSetup, NonDyadicBoundsTakeTheClipPath) {
  const lph::ZoneSystem::Config zones{1, 12};
  Stack routed({}, non_dyadic_scheme(), zones);
  const auto routed_handles = install_routed(routed, non_dyadic_batch());

  Stack bulk({}, non_dyadic_scheme(), zones);
  const auto bulk_handles =
      bulk.sys.bulk_subscribe(bulk.scheme, non_dyadic_batch(), 1);
  const auto& stats = bulk.sys.bulk_stats();
  EXPECT_GT(stats.children_clipped, 0u);
  EXPECT_GT(stats.children_fast, 0u);

  EXPECT_EQ(routed_handles, bulk_handles);
  EXPECT_EQ(routed.sys.node_loads(), bulk.sys.node_loads());
  EXPECT_EQ(routed.sys.node_stored_entries(), bulk.sys.node_stored_entries());
  EXPECT_EQ(zone_fingerprint(routed.sys), zone_fingerprint(bulk.sys));
  EXPECT_EQ(routed.sys.zone_content_digest(), bulk.sys.zone_content_digest());
  // locate() narrows as extent() does, so on these rounding bounds too a
  // stored rect lies inside its zone's extent.
  EXPECT_TRUE(routed.sys.check_zone_invariants());
  EXPECT_TRUE(bulk.sys.check_zone_invariants());

  Stack four({}, non_dyadic_scheme(), zones);
  four.sys.bulk_subscribe(four.scheme, non_dyadic_batch(), 4);
  EXPECT_EQ(zone_fingerprint(bulk.sys), zone_fingerprint(four.sys));
  EXPECT_EQ(bulk.sys.zone_content_digest(), four.sys.zone_content_digest());
  EXPECT_EQ(four.sys.bulk_stats().children_clipped, stats.children_clipped);
  EXPECT_EQ(four.sys.bulk_stats().children_fast, stats.children_fast);

  const auto routed_got = deliver_points(routed, 30);
  const auto bulk_got = deliver_points(bulk, 30);
  EXPECT_FALSE(bulk_got.empty());
  EXPECT_EQ(std::multiset(routed_got.begin(), routed_got.end()),
            std::multiset(bulk_got.begin(), bulk_got.end()));
  EXPECT_EQ(bulk_got, deliver_points(four, 30));
  EXPECT_EQ(metrics::snapshot(bulk.sys).to_json(),
            metrics::snapshot(four.sys).to_json());
}

// The table1 tree splits [0, 10^k] domains exactly, so every child of a
// saturated zone takes the geometry-free path, and each zone's index is
// built at most once.
TEST(BulkSetup, DyadicCascadeNeverClips) {
  HyperSubSystem::Config cfg;
  cfg.match_index_threshold = 4;
  Stack s(cfg);
  s.sys.bulk_subscribe(s.scheme, make_batch());
  const auto& stats = s.sys.bulk_stats();
  EXPECT_EQ(stats.children_clipped, 0u);
  EXPECT_GT(stats.children_fast, 0u);
  EXPECT_GT(stats.zones_cascaded, 0u);
  std::size_t indexed = 0;
  for (net::HostIndex h = 0; h < kHosts; ++h) {
    for (const auto& [addr, z] : s.sys.node(h).zones()) {
      indexed += z.index_active() ? 1 : 0;
    }
  }
  EXPECT_GT(indexed, 0u);
  EXPECT_EQ(stats.indexes_built, indexed);
}

// The run cascade on base-4 zone trees split into two rotated subschemes:
// each level's key step is four codes' worth of padding, and each
// subscheme's runs are cut at host arcs on its own rotation. The bulk tree
// must still be the one routed installs converge to.
TEST(BulkSetup, Base4SubschemesMatchRoutedInstalls) {
  const lph::ZoneSystem::Config zones{2, 16};
  const std::vector<std::vector<std::size_t>> parts{{0, 1}, {2, 3}};
  Stack routed({}, Stack::table1_scheme(), zones, parts);
  const auto routed_handles = install_routed(routed, make_batch());

  Stack bulk({}, Stack::table1_scheme(), zones, parts);
  const auto bulk_handles =
      bulk.sys.bulk_subscribe(bulk.scheme, make_batch(), 2);
  EXPECT_GT(bulk.sys.bulk_stats().children_fast, 0u);

  EXPECT_EQ(routed_handles, bulk_handles);
  EXPECT_EQ(routed.sys.node_stored_entries(), bulk.sys.node_stored_entries());
  EXPECT_EQ(zone_fingerprint(routed.sys), zone_fingerprint(bulk.sys));
  EXPECT_EQ(routed.sys.zone_content_digest(), bulk.sys.zone_content_digest());
  EXPECT_TRUE(bulk.sys.check_zone_invariants());
}

// A second batch lands on a tree the first one saturated: its installs
// must find their zones as the routed path does (materialized from the
// saturated bit, not re-created empty beside it), so two batches leave the
// tree one batch leaves.
TEST(BulkSetup, SecondBatchOnSaturatedTree) {
  Stack one;
  one.sys.bulk_subscribe(one.scheme, make_batch());

  Stack two;
  auto batch = make_batch();
  std::vector<HyperSubSystem::BulkSub> rest(
      std::make_move_iterator(batch.begin() + kSubs / 2),
      std::make_move_iterator(batch.end()));
  batch.resize(kSubs / 2);
  two.sys.bulk_subscribe(two.scheme, std::move(batch));
  two.sys.bulk_subscribe(two.scheme, std::move(rest));

  EXPECT_TRUE(two.sys.check_zone_invariants());
  EXPECT_EQ(one.sys.zone_content_digest(), two.sys.zone_content_digest());
  EXPECT_EQ(zone_fingerprint(one.sys), zone_fingerprint(two.sys));
  EXPECT_EQ(one.sys.node_loads(), two.sys.node_loads());
  EXPECT_EQ(deliver_events(one, 20), deliver_events(two, 20));
}

TEST(BulkSetup, UnsubscribeAfterBulkInstall) {
  Stack s;
  auto handles = s.sys.bulk_subscribe(s.scheme, make_batch());
  const std::size_t before = s.sys.total_subscriptions();
  for (std::size_t i = 0; i < handles.size(); i += 4) {
    s.sys.unsubscribe(handles[i]);
  }
  s.sim.run();
  EXPECT_EQ(s.sys.total_subscriptions(), before - (handles.size() + 3) / 4);
  EXPECT_TRUE(s.sys.check_zone_invariants());
}

TEST(BulkSetup, FallsBackToRoutedInstallsWithoutOracleTable) {
  net::KingLikeTopology::Params tp;
  tp.hosts = 24;
  tp.seed = 3;
  net::KingLikeTopology topo(tp);
  sim::Simulator sim;
  net::Network net(sim, topo);
  pastry::PastryNet::Params pp;
  pp.seed = 3;
  pastry::PastryNet pastry(net, pp);
  ASSERT_TRUE(pastry.oracle_owner_table().empty());

  HyperSubSystem::Config pc;
  pc.bootstrap = core::BootstrapMode::kOracle;  // Overlay::build via the system
  HyperSubSystem sys(pastry, pc);
  workload::WorkloadGenerator gen(workload::table1_spec(), 5);
  core::SchemeOptions opt;
  opt.zone_cfg = {1, 20};
  const auto scheme = sys.add_scheme(gen.scheme(), opt);
  std::vector<HyperSubSystem::BulkSub> batch;
  for (std::size_t i = 0; i < 60; ++i) {
    batch.push_back({net::HostIndex(i % 24), gen.make_subscription()});
  }
  const auto handles = sys.bulk_subscribe(scheme, std::move(batch));
  sim.run();  // fallback goes through routed installs
  EXPECT_EQ(handles.size(), 60u);
  EXPECT_EQ(sys.total_subscriptions(), 60u);
  EXPECT_TRUE(sys.check_zone_invariants());
}

}  // namespace
}  // namespace hypersub
