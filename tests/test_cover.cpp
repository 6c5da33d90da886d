// Covering-based subscription aggregation (ROADMAP "Subscription
// aggregation"): CoverSet bookkeeping, ZoneState quench/promote semantics
// against brute force (scan and indexed paths), exact summary recompute
// after arc extraction, exact migrated-bucket rects, and the correctness
// bar — the delivery multiset with cover_aggregation on is identical to
// the baseline and to brute force, including under churn with reliable
// delivery and after load-balancer migration.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "chord/chord_net.hpp"
#include "core/cover_set.hpp"
#include "core/hypersub_system.hpp"
#include "core/load_balancer.hpp"
#include "core/zone_state.hpp"
#include "net/topology.hpp"
#include "workload/scheme_factory.hpp"
#include "workload/zipf_workload.hpp"

namespace hypersub {
namespace {

using core::CoverSet;
using core::HyperSubSystem;
using core::LoadBalancer;
using core::MigratedBucket;
using core::StoredSub;
using core::SubArena;
using core::SubId;
using core::SubIdKind;
using core::ZoneAddr;
using core::ZoneState;

constexpr std::size_t kNever = ~std::size_t{0};

// ---------------------------------------------------------------------------
// CoverSet unit semantics
// ---------------------------------------------------------------------------

TEST(CoverSet, QuenchReleaseTakeBookkeeping) {
  CoverSet cs;
  EXPECT_TRUE(cs.empty());
  cs.quench(1, 2);
  cs.quench(1, 3);
  cs.quench(5, 4);
  EXPECT_EQ(cs.quenched_count(), 3u);
  EXPECT_EQ(cs.rep_of(2), 1u);
  EXPECT_EQ(cs.rep_of(4), 5u);
  EXPECT_EQ(cs.rep_of(1), SubArena::kNullRef);  // a rep is not quenched
  ASSERT_NE(cs.coverees(1), nullptr);
  EXPECT_EQ(*cs.coverees(1), (std::vector<SubArena::Ref>{2, 3}));
  EXPECT_EQ(cs.coverees(7), nullptr);

  EXPECT_TRUE(cs.release(3));
  EXPECT_FALSE(cs.release(3));  // already released
  EXPECT_EQ(cs.quenched_count(), 2u);
  EXPECT_EQ(*cs.coverees(1), (std::vector<SubArena::Ref>{2}));

  const auto taken = cs.take_coverees(1);
  EXPECT_EQ(taken, (std::vector<SubArena::Ref>{2}));
  EXPECT_EQ(cs.rep_of(2), SubArena::kNullRef);
  EXPECT_TRUE(cs.take_coverees(1).empty());  // idempotent once removed
  EXPECT_EQ(cs.quenched_count(), 1u);
  cs.take_coverees(5);
  EXPECT_TRUE(cs.empty());
}

// ---------------------------------------------------------------------------
// ZoneState quench/promote semantics
// ---------------------------------------------------------------------------

StoredSub make_stored(std::size_t i, const pubsub::Subscription& sub) {
  const Id owner = Id(i) * 0x9E3779B97F4A7C15ull + 13;
  return StoredSub{SubId{owner, std::uint32_t(i), SubIdKind::kSubscriber},
                   sub, sub.range()};
}

StoredSub stored_rect(std::size_t i, Id owner, const HyperRect& r) {
  return StoredSub{SubId{owner, std::uint32_t(i), SubIdKind::kSubscriber},
                   pubsub::Subscription(r), r};
}

/// Rect shrunk toward its center by fraction `f` per side (f < 0.5).
HyperRect shrink(const HyperRect& r, double f) {
  std::vector<Interval> d;
  for (const auto& iv : r.dims()) {
    d.push_back({iv.lo + f * iv.length(), iv.hi - f * iv.length()});
  }
  return HyperRect(std::move(d));
}

std::vector<SubId> match_of(const ZoneState& z, const Point& p) {
  std::vector<SubId> out;
  z.match(p, p, out);
  return out;
}

TEST(CoverZone, QuenchThenPromoteOnCovererRemove) {
  ZoneState z(ZoneAddr{}, ZoneState::kDefaultIndexThreshold,
              /*cover_aggregation=*/true);
  const HyperRect outer = HyperRect::uniform(2, 0.0, 10.0);
  const HyperRect inner = shrink(outer, 0.25);  // [2.5,7.5]^2
  const auto a = stored_rect(0, 100, outer);
  const auto b = stored_rect(1, 200, inner);
  const auto c = stored_rect(2, 300, outer);  // exact duplicate of a's rect

  EXPECT_TRUE(z.add_subscription(a));   // first content grows the summary
  EXPECT_FALSE(z.add_subscription(b));  // quenched under a
  EXPECT_FALSE(z.add_subscription(c));  // quenched under a (ties go to the
                                        // first coverer in insertion order)
  EXPECT_EQ(z.cover_representatives(), 1u);
  EXPECT_EQ(z.cover_quenched(), 2u);
  EXPECT_EQ(z.subscription_count(), 3u);  // quenched subs are still stored
  EXPECT_EQ(z.summary(), outer);
  EXPECT_EQ(z.exact_summary(), z.summary());

  // Inside the inner rect all three match: the representative first, then
  // its coverees in quench order.
  const auto m = match_of(z, {5.0, 5.0});
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0], a.owner);
  EXPECT_EQ(m[1], b.owner);
  EXPECT_EQ(m[2], c.owner);
  // In the outer ring the quenched inner sub is filtered by its own exact
  // rect even though its representative admitted the event.
  const auto ring = match_of(z, {1.0, 1.0});
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring[0], a.owner);
  EXPECT_EQ(ring[1], c.owner);

  // Removing the representative promotes both coverees (neither covers the
  // other in the b-then-c rehoming order: b's rect is strictly smaller).
  ASSERT_TRUE(z.remove_subscription(a.owner, a.sub.range()).removed);
  EXPECT_EQ(z.cover_promotions(), 2u);
  EXPECT_EQ(z.cover_representatives(), 2u);
  EXPECT_EQ(z.cover_quenched(), 0u);
  EXPECT_EQ(z.summary(), outer);  // c still spans the outer rect
  EXPECT_EQ(z.exact_summary(), z.summary());
  const auto after = match_of(z, {5.0, 5.0});
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0], b.owner);
  EXPECT_EQ(after[1], c.owner);
  ASSERT_EQ(match_of(z, {1.0, 1.0}), (std::vector<SubId>{c.owner}));
}

TEST(CoverZone, OrphanRequenchesUnderPromotedSibling) {
  ZoneState z(ZoneAddr{}, ZoneState::kDefaultIndexThreshold, true);
  const HyperRect outer = HyperRect::uniform(2, 0.0, 10.0);
  const HyperRect mid = shrink(outer, 0.1);
  const HyperRect inner = shrink(outer, 0.3);
  const auto a = stored_rect(0, 100, outer);
  const auto b = stored_rect(1, 200, mid);
  const auto c = stored_rect(2, 300, inner);
  z.add_subscription(a);
  z.add_subscription(b);  // quenched under a
  z.add_subscription(c);  // quenched under a (first coverer wins)
  ASSERT_EQ(z.cover_quenched(), 2u);

  // a leaves; b promotes first (nothing covers it), then c re-quenches
  // under the just-promoted b instead of becoming a representative.
  ASSERT_TRUE(z.remove_subscription(a.owner, a.sub.range()).removed);
  EXPECT_EQ(z.cover_promotions(), 1u);
  EXPECT_EQ(z.cover_representatives(), 1u);
  EXPECT_EQ(z.cover_quenched(), 1u);
  EXPECT_EQ(z.summary(), mid);
  EXPECT_EQ(z.exact_summary(), z.summary());
  const auto m = match_of(z, {5.0, 5.0});
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0], b.owner);
  EXPECT_EQ(m[1], c.owner);
}

TEST(CoverZone, CovereeRemoveLeavesRepAndSummary) {
  ZoneState z(ZoneAddr{}, ZoneState::kDefaultIndexThreshold, true);
  const HyperRect outer = HyperRect::uniform(2, 0.0, 10.0);
  const auto a = stored_rect(0, 100, outer);
  const auto b = stored_rect(1, 200, shrink(outer, 0.25));
  z.add_subscription(a);
  z.add_subscription(b);
  const auto removed = z.remove_subscription(b.owner, b.sub.range());
  ASSERT_TRUE(removed.removed);
  EXPECT_FALSE(removed.summary_changed);
  EXPECT_FALSE(z.has_subscription(b.owner));
  EXPECT_EQ(z.cover_representatives(), 1u);
  EXPECT_EQ(z.cover_quenched(), 0u);
  EXPECT_EQ(z.cover_promotions(), 0u);
  EXPECT_EQ(z.summary(), outer);
  ASSERT_EQ(match_of(z, {5.0, 5.0}), (std::vector<SubId>{a.owner}));
}

// Bugfix regression: extraction must recompute the summary exactly (it
// used to keep the stale pre-extraction hull, so the zone kept attracting
// events that matched nothing), and coverees orphaned by a leaving
// representative must survive in the zone.
TEST(CoverZone, ExtractRecomputesSummaryAndRehomesOrphans) {
  for (const bool cover : {false, true}) {
    ZoneState z(ZoneAddr{}, ZoneState::kDefaultIndexThreshold, cover);
    const HyperRect big = HyperRect::uniform(2, 0.0, 10.0);
    const HyperRect small = shrink(big, 0.25);
    // Owner ring ids: 100 inside the arc [50, 200), 5000 outside it.
    const auto leaving = stored_rect(0, 100, big);
    const auto staying = stored_rect(1, 5000, small);
    z.add_subscription(leaving);
    z.add_subscription(staying);  // under cover: quenched beneath `leaving`
    ASSERT_EQ(z.summary(), big);

    const auto out = z.extract_subscribers_in_arc(50, 200);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].owner, leaving.owner);
    EXPECT_EQ(out[0].sub.range(), big);
    // The stale hull would still be `big`; the exact recompute shrinks it.
    EXPECT_EQ(z.summary(), small);
    EXPECT_EQ(z.exact_summary(), z.summary());
    EXPECT_EQ(z.subscription_count(), 1u);
    EXPECT_EQ(z.cover_representatives(), 1u);
    EXPECT_EQ(z.cover_quenched(), 0u);
    if (cover) {
      EXPECT_EQ(z.cover_promotions(), 1u);
    }
    ASSERT_EQ(match_of(z, {5.0, 5.0}), (std::vector<SubId>{staying.owner}));

    // Extracting the rest empties the summary entirely.
    const auto rest = z.extract_subscribers_in_arc(4000, 6000);
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_TRUE(z.summary().empty());
    EXPECT_EQ(z.exact_summary(), z.summary());
  }
}

// Bugfix regression: a migrated bucket's hull over-covers; match() must
// forward the pointer only when one of the exact per-sub rects contains
// the point, not for the hull's dead corners.
TEST(CoverZone, BucketExactRectsGateForwarding) {
  const HyperRect lo_corner(
      {Interval{0.0, 2.0}, Interval{0.0, 2.0}});
  const HyperRect hi_corner(
      {Interval{8.0, 10.0}, Interval{8.0, 10.0}});
  const HyperRect hull = lo_corner.hull(hi_corner);  // [0,10]^2
  const SubId ptr{Id{7}, 1, SubIdKind::kMigrated};

  ZoneState exact(ZoneAddr{});
  exact.add_migrated_bucket(MigratedBucket{hull, {lo_corner, hi_corner}, ptr});
  EXPECT_EQ(match_of(exact, {1.0, 1.0}), (std::vector<SubId>{ptr}));
  EXPECT_EQ(match_of(exact, {9.0, 9.0}), (std::vector<SubId>{ptr}));
  EXPECT_TRUE(match_of(exact, {1.0, 9.0}).empty());  // dead corner
  EXPECT_TRUE(match_of(exact, {5.0, 5.0}).empty());  // dead center

  // Without exact rects the hull alone decides (legacy bucket form).
  ZoneState hull_only(ZoneAddr{});
  hull_only.add_migrated_bucket(MigratedBucket{hull, {}, ptr});
  EXPECT_EQ(match_of(hull_only, {1.0, 9.0}), (std::vector<SubId>{ptr}));
}

// ---------------------------------------------------------------------------
// Randomized parity: cover zone (scan and indexed) vs plain zone vs brute
// force, through adds, removals, and arc extraction
// ---------------------------------------------------------------------------

TEST(CoverZone, RandomizedParityAgainstBruteForce) {
  for (const std::uint64_t seed : {3ull, 5ull, 9ull}) {
    workload::WorkloadGenerator gen(workload::table1_spec(), seed);
    ZoneState cover_scan(ZoneAddr{}, kNever, /*cover_aggregation=*/true);
    ZoneState cover_idx(ZoneAddr{}, /*index_threshold=*/0, true);
    ZoneState plain(ZoneAddr{}, kNever, false);

    // A dup-heavy workload: most inserts reuse a small pool verbatim or
    // shrunk (guaranteed containment), the rest are fresh — so quenching,
    // re-quenching, and promotion all fire along the way.
    std::vector<pubsub::Subscription> pool;
    for (int i = 0; i < 24; ++i) pool.push_back(gen.make_subscription());
    Rng rng(seed * 11 + 1);
    auto random_sub = [&]() -> pubsub::Subscription {
      if (rng.chance(0.6)) {
        const auto& base = pool[rng.index(pool.size())];
        if (rng.chance(0.5)) {
          return pubsub::Subscription(shrink(base.range(), 0.1));
        }
        return base;
      }
      return gen.make_subscription();
    };

    std::vector<StoredSub> live;
    std::size_t next_id = 0;
    auto add_batch = [&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto s = make_stored(next_id++, random_sub());
        live.push_back(s);
        cover_scan.add_subscription(s);
        cover_idx.add_subscription(s);
        plain.add_subscription(s);
      }
    };

    using OwnerKey = std::pair<Id, std::uint32_t>;
    auto owner_multiset = [](const std::vector<SubId>& v) {
      std::multiset<OwnerKey> out;
      for (const auto& s : v) out.insert({s.target, s.iid});
      return out;
    };
    auto expect_parity = [&](const char* what) {
      ASSERT_TRUE(cover_idx.index_active() || live.empty()) << what;
      ASSERT_FALSE(cover_scan.index_active()) << what;
      EXPECT_EQ(cover_scan.cover_representatives(),
                cover_idx.cover_representatives())
          << what;
      EXPECT_EQ(cover_scan.cover_quenched(), cover_idx.cover_quenched())
          << what;
      EXPECT_EQ(cover_scan.summary(), plain.summary()) << what;
      EXPECT_EQ(cover_scan.exact_summary(), cover_scan.summary()) << what;
      EXPECT_EQ(cover_scan.subscription_count(), live.size()) << what;
      for (int e = 0; e < 48; ++e) {
        const Point p = gen.make_event().point;
        const auto scan = match_of(cover_scan, p);
        // The indexed coverer pick must equal the scan pick, so the two
        // cover zones agree subid-for-subid, order included.
        ASSERT_EQ(scan, match_of(cover_idx, p))
            << what << " seed " << seed << " event " << e;
        // Against the plain zone and brute force only the multiset is
        // promised: expansion emits coverees after their representative,
        // not in global insertion order.
        std::multiset<OwnerKey> expect;
        for (const auto& s : live) {
          if (s.sub.matches(p)) expect.insert({s.owner.target, s.owner.iid});
        }
        ASSERT_EQ(owner_multiset(scan), expect)
            << what << " seed " << seed << " event " << e;
        ASSERT_EQ(owner_multiset(match_of(plain, p)), expect)
            << what << " seed " << seed << " event " << e;
      }
    };

    add_batch(300);
    EXPECT_GT(cover_scan.cover_quenched(), 0u);
    expect_parity("after adds");

    // Owner-keyed removals hit representatives and coverees alike.
    std::vector<StoredSub> keep;
    for (const auto& s : live) {
      if (rng.chance(0.3)) {
        const HyperRect& range = s.sub.range();
        ASSERT_TRUE(cover_scan.remove_subscription(s.owner, range).removed);
        ASSERT_TRUE(cover_idx.remove_subscription(s.owner, range).removed);
        ASSERT_TRUE(plain.remove_subscription(s.owner, range).removed);
      } else {
        keep.push_back(s);
      }
    }
    live = std::move(keep);
    EXPECT_EQ(cover_scan.cover_promotions(), cover_idx.cover_promotions());
    expect_parity("after removals");

    // Arc extraction (the migration path): all three zones hand back the
    // same owner multiset, and the survivors keep matching exactly.
    const Id lo = rng.next_u64();
    const Id hi = lo + (~Id{0} / 3);
    const auto out_s = cover_scan.extract_subscribers_in_arc(lo, hi);
    const auto out_i = cover_idx.extract_subscribers_in_arc(lo, hi);
    const auto out_p = plain.extract_subscribers_in_arc(lo, hi);
    auto extracted_owners = [](const std::vector<StoredSub>& v) {
      std::multiset<OwnerKey> out;
      for (const auto& s : v) out.insert({s.owner.target, s.owner.iid});
      return out;
    };
    const auto gone = extracted_owners(out_p);
    ASSERT_EQ(extracted_owners(out_s), gone);
    ASSERT_EQ(extracted_owners(out_i), gone);
    EXPECT_GT(gone.size(), 0u);
    std::vector<StoredSub> survivors;
    for (const auto& s : live) {
      if (!gone.count({s.owner.target, s.owner.iid})) survivors.push_back(s);
    }
    live = std::move(survivors);
    expect_parity("after arc extraction");

    add_batch(150);
    expect_parity("after post-extraction adds");
  }
}

// ---------------------------------------------------------------------------
// System scaffolding (mirrors tests/test_route_cache.cpp)
// ---------------------------------------------------------------------------

struct StackOpts {
  bool reliable = false;
  std::size_t replicas = 0;
  bool cover = false;
};

struct Stack {
  std::unique_ptr<net::KingLikeTopology> topo;
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<chord::ChordNet> chord;
  std::unique_ptr<HyperSubSystem> sys;
};

Stack make_stack(std::size_t n, std::uint64_t seed, StackOpts o = {}) {
  Stack s;
  net::KingLikeTopology::Params tp;
  tp.hosts = n;
  tp.seed = seed;
  s.topo = std::make_unique<net::KingLikeTopology>(tp);
  s.sim = std::make_unique<sim::Simulator>();
  s.net = std::make_unique<net::Network>(*s.sim, *s.topo);
  chord::ChordNet::Params cp;
  cp.seed = seed;
  cp.reliable_routing = o.reliable;
  s.chord = std::make_unique<chord::ChordNet>(*s.net, cp);
  HyperSubSystem::Config sc;
  sc.bootstrap = core::BootstrapMode::kOracle;
  sc.reliable_delivery = o.reliable;
  sc.replicas = o.replicas;
  sc.cover_aggregation = o.cover;
  s.sys = std::make_unique<HyperSubSystem>(*s.chord, sc);
  return s;
}

using DeliveryKey = std::tuple<std::uint64_t, std::size_t, std::uint32_t>;

std::multiset<DeliveryKey> delivered(const HyperSubSystem& sys) {
  std::multiset<DeliveryKey> out;
  for (const auto& d : sys.deliveries()) {
    out.insert({d.event_seq, d.subscriber, d.iid});
  }
  return out;
}

struct Owned {
  net::HostIndex host;
  std::uint32_t iid;
  pubsub::Subscription sub;
};

// ---------------------------------------------------------------------------
// The correctness bar: cover on == cover off == brute force
// ---------------------------------------------------------------------------

TEST(CoverSystem, DeliveryParityAndRegistrationReduction) {
  constexpr std::size_t kHosts = 40;
  constexpr int kSubs = 240;

  auto run = [&](bool cover) {
    auto s = make_stack(kHosts, 53, {.cover = cover});
    workload::WorkloadGenerator gen(workload::tiny_spec(), 59);
    core::SchemeOptions opt;
    opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
    const auto scheme = s.sys->add_scheme(gen.scheme(), opt);

    // Dup-heavy interest pool: identical and shrunk-copy subscriptions
    // hash to the same zone, so quenching engages; several subs per host
    // mean same-target runs for the grouped subid encoding.
    std::vector<pubsub::Subscription> pool;
    for (int i = 0; i < 20; ++i) pool.push_back(gen.make_subscription());
    std::vector<Owned> subs;
    Rng rng(61);
    for (int i = 0; i < kSubs; ++i) {
      const auto host = net::HostIndex(rng.index(kHosts));
      pubsub::Subscription sub = pool[rng.index(pool.size())];
      const int kind = int(rng.index(3));
      if (kind == 1) {
        sub = pubsub::Subscription(shrink(sub.range(), 0.1));
      } else if (kind == 2) {
        sub = gen.make_subscription();
      }
      subs.push_back({host, s.sys->subscribe(host, scheme, sub).iid, sub});
    }
    s.sim->run();

    std::vector<pubsub::Event> pool_ev;
    for (int i = 0; i < 6; ++i) pool_ev.push_back(gen.make_event());
    const net::HostIndex pub = 7;
    std::vector<pubsub::Event> events;
    for (int round = 0; round < 10; ++round) {
      for (int b = 0; b < 4; ++b) {
        auto e = pool_ev[std::size_t(round * 4 + b) % pool_ev.size()];
        events.push_back(e);
        s.sys->publish(pub, scheme, std::move(e));
      }
      s.sim->run();
    }
    s.sys->finalize_events();
    return std::make_tuple(std::move(s), std::move(subs), std::move(events));
  };

  auto [base, base_subs, base_events] = run(false);
  auto [agg, agg_subs, agg_events] = run(true);

  ASSERT_EQ(base_events.size(), agg_events.size());
  const auto base_set = delivered(*base.sys);
  EXPECT_EQ(base_set, delivered(*agg.sys));
  std::multiset<DeliveryKey> expected;
  for (std::size_t i = 0; i < base_events.size(); ++i) {
    for (const auto& o : base_subs) {
      if (o.sub.matches(base_events[i].point)) {
        expected.insert({std::uint64_t(i + 1), o.host, o.iid});
      }
    }
  }
  EXPECT_EQ(base_set, expected);

  // Aggregation actually engaged: every stored sub is either a
  // representative or quenched, a real fraction got quenched, the grouped
  // encoding paid fewer subid bytes, and the off-path counters stay zero.
  const auto cc = agg.sys->cover_counters();
  EXPECT_EQ(cc.representatives + cc.quenched, std::uint64_t(kSubs));
  EXPECT_GT(cc.quenched, 0u);
  EXPECT_GT(cc.subid_bytes_saved, 0u);
  const auto base_cc = base.sys->cover_counters();
  EXPECT_EQ(base_cc.quenched, 0u);
  EXPECT_EQ(base_cc.subid_bytes_saved, 0u);
  // Quenched subs still count as stored load.
  EXPECT_EQ(base.sys->total_subscriptions(), agg.sys->total_subscriptions());
  EXPECT_TRUE(agg.sys->check_zone_invariants());
}

TEST(CoverSystem, DeliveryParityUnderChurnWithReliability) {
  constexpr std::size_t kHosts = 40;
  constexpr std::size_t kSubscriberHosts = 20;  // hosts 0..19 subscribe

  auto run = [&](bool cover) {
    auto s = make_stack(kHosts, 67,
                        {.reliable = true, .replicas = 2, .cover = cover});
    workload::WorkloadGenerator gen(workload::tiny_spec(), 71);
    core::SchemeOptions opt;
    opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
    const auto scheme = s.sys->add_scheme(gen.scheme(), opt);
    std::vector<pubsub::Subscription> pool;
    for (int i = 0; i < 16; ++i) pool.push_back(gen.make_subscription());
    std::vector<Owned> subs;
    Rng rng(73);
    for (int i = 0; i < 120; ++i) {
      const auto host = net::HostIndex(rng.index(kSubscriberHosts));
      const pubsub::Subscription sub = rng.chance(0.6)
                                           ? pool[rng.index(pool.size())]
                                           : gen.make_subscription();
      subs.push_back({host, s.sys->subscribe(host, scheme, sub).iid, sub});
    }
    s.sim->run();

    // Crashes interleaved with publish bursts; replica failover has to
    // preserve the aggregated zones' delivery expansion.
    std::vector<pubsub::Event> events;
    for (int round = 0; round < 6; ++round) {
      const auto victim = net::HostIndex(
          kSubscriberHosts + rng.index(kHosts - kSubscriberHosts));
      if (s.net->alive(victim)) s.chord->fail(victim);
      for (int b = 0; b < 3; ++b) {
        const auto pub = net::HostIndex(rng.index(kSubscriberHosts));
        auto e = gen.make_event();
        events.push_back(e);
        s.sys->publish(pub, scheme, std::move(e));
      }
      s.sim->run();
    }
    s.sys->finalize_events();
    return std::make_tuple(std::move(s), std::move(subs), std::move(events));
  };

  auto [base, base_subs, base_events] = run(false);
  auto [agg, agg_subs, agg_events] = run(true);

  const auto base_set = delivered(*base.sys);
  const auto agg_set = delivered(*agg.sys);
  EXPECT_EQ(base_set, agg_set);

  std::multiset<DeliveryKey> expected;
  for (std::size_t i = 0; i < base_events.size(); ++i) {
    for (const auto& o : base_subs) {
      if (o.sub.matches(base_events[i].point)) {
        expected.insert({std::uint64_t(i + 1), o.host, o.iid});
      }
    }
  }
  EXPECT_EQ(base_set, expected);
  EXPECT_EQ(agg_set, expected);
  EXPECT_GT(agg.sys->cover_counters().quenched, 0u);

  // No duplicate deliveries despite retries, reroutes, and expansion.
  std::set<DeliveryKey> unique(agg_set.begin(), agg_set.end());
  EXPECT_EQ(unique.size(), agg_set.size());
}

// Load-balancer migration of a heavily aggregated hot spot: extraction
// promotes/re-homes coverees, the donor's summary shrinks exactly, the
// migrated bucket carries exact rects, and every subscriber still gets
// the event through the bucket pointer.
TEST(CoverSystem, MigrationOfAggregatedHotSpotKeepsDeliveries) {
  auto s = make_stack(30, 79, {.cover = true});
  workload::WorkloadGenerator gen(workload::tiny_spec(), 83);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  const auto scheme = s.sys->add_scheme(gen.scheme(), opt);
  const auto& sch = s.sys->scheme_runtime(scheme).scheme();
  const auto& dom = sch.domain();

  // 120 identical point subscriptions: one representative, 119 quenched,
  // all in one leaf zone on one surrogate — the migration target.
  const double x = dom.dim(0).lo + 0.3 * dom.dim(0).length();
  const double y = dom.dim(1).lo + 0.3 * dom.dim(1).length();
  const pubsub::Predicate hot[] = {{0, {x, x}}, {1, {y, y}}};
  for (net::HostIndex h = 0; h < 30; ++h) {
    for (int k = 0; k < 4; ++k) {
      s.sys->subscribe(h, scheme,
                       pubsub::Subscription::from_predicates(sch, hot));
    }
  }
  s.sim->run();
  const auto before_cc = s.sys->cover_counters();
  EXPECT_EQ(before_cc.representatives + before_cc.quenched, 120u);
  EXPECT_GT(before_cc.quenched, 100u);

  const pubsub::Event e{0, {x, y}};
  const net::HostIndex pub = 11;
  s.sys->publish(pub, scheme, e);
  s.sim->run();
  s.sys->finalize_events();
  ASSERT_EQ(s.sys->deliveries().size(), 120u);

  LoadBalancer::Config lc;
  lc.delta = 0.05;
  lc.min_load = 2;
  LoadBalancer lb(*s.sys, lc);
  lb.run_round();
  s.sim->run();
  ASSERT_GT(lb.migrated_count(), 0u);
  // Exact summaries and exact bucket rects everywhere, donors included.
  EXPECT_TRUE(s.sys->check_zone_invariants());

  const std::size_t before = s.sys->deliveries().size();
  s.sys->publish(pub, scheme, e);
  s.sim->run();
  s.sys->finalize_events();
  EXPECT_EQ(s.sys->deliveries().size() - before, 120u);
}

}  // namespace
}  // namespace hypersub
