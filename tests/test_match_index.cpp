// Index/scan parity: the SubIndex-backed ZoneState::match must return
// exactly what the linear scan returns — same subids, same order — across
// randomized workloads and through every mutation path (add, remove,
// arc extraction, bucket/piece installs), plus end-to-end delivery with an
// aggressive index threshold.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "chord/chord_net.hpp"
#include "common/rng.hpp"
#include "common/wire.hpp"
#include "core/hypersub_system.hpp"
#include "core/sub_index.hpp"
#include "core/zone_state.hpp"
#include "net/topology.hpp"
#include "workload/scheme_factory.hpp"
#include "workload/zipf_workload.hpp"

namespace hypersub {
namespace {

using core::StoredSub;
using core::SubId;
using core::SubIdKind;
using core::SubIndex;
using core::ZoneAddr;
using core::ZoneState;

constexpr std::size_t kNever = ~std::size_t{0};

StoredSub make_stored(std::size_t i, const pubsub::Subscription& sub) {
  // Spread owner ids over the whole ring so random arcs hit some of them.
  const Id owner = Id(i) * 0x9E3779B97F4A7C15ull + 13;
  return StoredSub{SubId{owner, std::uint32_t(i), SubIdKind::kSubscriber},
                   sub, sub.range()};
}

std::vector<SubId> match_of(const ZoneState& z, const Point& p) {
  std::vector<SubId> out;
  z.match(p, p, out);
  return out;
}

// -- SubIndex unit properties -------------------------------------------------

TEST(SubIndex, CandidatesAreSupersetOfExactMatches) {
  workload::WorkloadGenerator gen(workload::table1_spec(), 71);
  SubIndex idx;
  std::vector<HyperRect> live;
  std::vector<std::uint32_t> slots;
  for (int i = 0; i < 3000; ++i) {
    const auto r = gen.make_subscription().range();
    slots.push_back(idx.insert(r));
    live.push_back(r);
  }
  // Remove a third, keeping slot/live aligned.
  for (std::size_t i = live.size(); i-- > 0;) {
    if (i % 3 == 0) {
      idx.remove(slots[i]);
      slots.erase(slots.begin() + std::ptrdiff_t(i));
      live.erase(live.begin() + std::ptrdiff_t(i));
    }
  }
  ASSERT_EQ(idx.size(), live.size());

  std::vector<std::uint32_t> cand;
  for (int e = 0; e < 200; ++e) {
    const Point p = gen.make_event().point;
    cand.clear();
    idx.candidates(p, cand);
    ASSERT_TRUE(std::is_sorted(cand.begin(), cand.end()));
    const std::set<std::uint32_t> cset(cand.begin(), cand.end());
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i].contains(p)) {
        EXPECT_TRUE(cset.count(slots[i]))
            << "slot " << slots[i] << " missing for event " << e;
      }
    }
  }
}

TEST(SubIndex, SlotRecyclingKeepsCapacityBounded) {
  workload::WorkloadGenerator gen(workload::table1_spec(), 72);
  SubIndex idx;
  std::vector<std::uint32_t> slots;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 100; ++i) {
      slots.push_back(idx.insert(gen.make_subscription().range()));
    }
    for (int i = 0; i < 100; ++i) {
      idx.remove(slots.back());
      slots.pop_back();
    }
  }
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_LE(idx.slot_capacity(), 100u);
}

// Ranges drawn from the table1 workload, then given duplicates (copies of
// earlier ranges) and one degenerate dimension (every range the same
// point in dimension 3, so its endpoints are all identical).
std::vector<HyperRect> bulk_parity_rects(workload::WorkloadGenerator& gen,
                                         Rng& rng, std::size_t n) {
  std::vector<HyperRect> rects;
  for (std::size_t i = 0; i < n; ++i) {
    HyperRect r = i > 0 && rng.chance(0.15) ? rects[rng.index(i)]
                                            : gen.make_subscription().range();
    r.dim(3) = Interval{2.0, 2.0};
    rects.push_back(std::move(r));
  }
  return rects;
}

/// The slots whose range contains `p`, in slot order, after checking that
/// the candidates hold every one of them.
std::vector<std::uint32_t> exact_slots(const SubIndex& idx, const Point& p) {
  std::vector<std::uint32_t> cand;
  idx.candidates(p, cand);
  EXPECT_TRUE(std::is_sorted(cand.begin(), cand.end()));
  std::vector<std::uint32_t> exact;
  for (const std::uint32_t c : cand) {
    if (idx.slot_range(c).contains(p)) exact.push_back(c);
  }
  std::size_t live_hits = 0;
  for (std::uint32_t s = 0; s < idx.slot_capacity(); ++s) {
    const HyperRect& r = idx.slot_range(s);
    if (!r.empty() && r.contains(p)) ++live_hits;
  }
  EXPECT_EQ(exact.size(), live_hits) << "candidates miss a containing range";
  return exact;
}

TEST(SubIndex, BulkBuildMatchesPerInsert) {
  for (const std::uint64_t seed : {3ull, 4ull, 5ull}) {
    workload::WorkloadGenerator gen(workload::table1_spec(), seed);
    Rng rng(seed);
    const std::vector<HyperRect> rects =
        bulk_parity_rects(gen, rng, 40 + rng.index(1500));
    SubIndex per_insert;
    for (std::uint32_t i = 0; i < rects.size(); ++i) {
      ASSERT_EQ(per_insert.insert(rects[i]), i);
    }
    SubIndex bulk;
    bulk.assign(rects);
    ASSERT_EQ(bulk.size(), rects.size());
    ASSERT_EQ(bulk.slot_capacity(), rects.size());

    // Event points, corners of stored ranges (closed-boundary hits), and
    // points off the degenerate dimension's only value.
    const auto check = [&](const char* phase) {
      for (int e = 0; e < 150; ++e) {
        Point p = gen.make_event().point;
        if (e % 3 == 1) {
          const HyperRect& r = rects[rng.index(rects.size())];
          for (std::size_t d = 0; d < p.size(); ++d) {
            p[d] = e % 2 ? r.dim(d).lo : r.dim(d).hi;
          }
        }
        p[3] = e % 5 == 0 ? 3.0 : 2.0;
        ASSERT_EQ(exact_slots(per_insert, p), exact_slots(bulk, p))
            << phase << " seed " << seed << " point " << e;
      }
    };
    check("built");

    // The same inserts and removes keep the two equal; their rebuild
    // points differ (the bulk one counts from its build size).
    std::vector<std::uint32_t> live(rects.size());
    for (std::uint32_t i = 0; i < live.size(); ++i) live[i] = i;
    for (int op = 0; op < 3000; ++op) {
      if (!live.empty() && rng.chance(0.55)) {
        const std::size_t k = rng.index(live.size());
        per_insert.remove(live[k]);
        bulk.remove(live[k]);
        live[k] = live.back();
        live.pop_back();
      } else {
        HyperRect r = gen.make_subscription().range();
        r.dim(3) = Interval{2.0, 2.0};
        const std::uint32_t slot = per_insert.insert(r);
        ASSERT_EQ(bulk.insert(r), slot);
        live.push_back(slot);
      }
    }
    ASSERT_EQ(per_insert.size(), bulk.size());
    check("mutated");
  }
}

// -- ZoneState parity ---------------------------------------------------------

// A zone filled through stage_subscription and then build_index_if_due
// holds what add_subscription one by one leaves: the same index flag, the
// same match output in the same order, and a byte-identical save() image.
TEST(MatchIndexParity, StagedInstallMatchesOneByOne) {
  for (const bool cover : {false, true}) {
    for (const std::size_t n : {std::size_t{10}, std::size_t{64},
                                std::size_t{700}}) {
      workload::WorkloadGenerator gen(workload::table1_spec(), 90 + n);
      ZoneState one_by_one(ZoneAddr{}, /*index_threshold=*/64, cover);
      ZoneState staged(ZoneAddr{}, /*index_threshold=*/64, cover);
      std::vector<StoredSub> subs;
      for (std::size_t i = 0; i < n; ++i) {
        const StoredSub s = make_stored(i, gen.make_subscription());
        subs.push_back(s);
        one_by_one.add_subscription(s);
        staged.stage_subscription(s);
      }
      EXPECT_FALSE(staged.index_active());
      EXPECT_EQ(staged.build_index_if_due(), one_by_one.index_active());
      EXPECT_FALSE(staged.build_index_if_due());
      EXPECT_EQ(staged.index_active(), one_by_one.index_active());
      for (int e = 0; e < 100; ++e) {
        const Point p = gen.make_event().point;
        ASSERT_EQ(match_of(staged, p), match_of(one_by_one, p))
            << "n " << n << " cover " << cover << " event " << e;
      }
      common::ByteWriter a, b;
      one_by_one.save(a);
      staged.save(b);
      EXPECT_EQ(a.data(), b.data()) << "n " << n << " cover " << cover;
      // Both keep matching alike through later removals.
      for (std::size_t i = 0; i < n; i += 3) {
        const HyperRect& range = subs[i].sub.range();
        EXPECT_EQ(
            one_by_one.remove_subscription(subs[i].owner, range).removed,
            staged.remove_subscription(subs[i].owner, range).removed);
      }
      for (int e = 0; e < 50; ++e) {
        const Point p = gen.make_event().point;
        ASSERT_EQ(match_of(staged, p), match_of(one_by_one, p));
      }
    }
  }
}

// Drives an indexed and a scan-only ZoneState through the same mutation
// sequence and asserts bit-for-bit identical match output throughout.
TEST(MatchIndexParity, RandomizedMutationSequence) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    workload::WorkloadGenerator gen(workload::table1_spec(), seed);
    ZoneState indexed(ZoneAddr{}, /*index_threshold=*/0);
    ZoneState linear(ZoneAddr{}, /*index_threshold=*/kNever);

    std::vector<StoredSub> stored;
    auto add_batch = [&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto s = make_stored(stored.size(), gen.make_subscription());
        stored.push_back(s);
        indexed.add_subscription(s);
        linear.add_subscription(s);
      }
    };
    auto expect_parity = [&](const char* what) {
      ASSERT_TRUE(indexed.index_active());
      ASSERT_FALSE(linear.index_active());
      for (int e = 0; e < 64; ++e) {
        const Point p = gen.make_event().point;
        ASSERT_EQ(match_of(indexed, p), match_of(linear, p))
            << what << " seed " << seed << " event " << e;
      }
      EXPECT_EQ(indexed.summary(), linear.summary()) << what;
    };

    add_batch(800);
    expect_parity("after adds");

    // Remove a random quarter through the owner-keyed removal path.
    Rng rng(seed * 7 + 1);
    std::vector<StoredSub> keep;
    for (const auto& s : stored) {
      if (rng.chance(0.25)) {
        const HyperRect& range = s.sub.range();
        ASSERT_TRUE(indexed.remove_subscription(s.owner, range).removed);
        ASSERT_TRUE(linear.remove_subscription(s.owner, range).removed);
      } else {
        keep.push_back(s);
      }
    }
    stored = std::move(keep);
    expect_parity("after removals");

    // Migrate an arc away (the load-balancer path).
    const Id lo = rng.next_u64();
    const Id hi = lo + (~Id{0} / 3);  // wrap-aware arc, ~1/3 of the ring
    const auto out_i = indexed.extract_subscribers_in_arc(lo, hi);
    const auto out_l = linear.extract_subscribers_in_arc(lo, hi);
    ASSERT_EQ(out_i.size(), out_l.size());
    for (std::size_t i = 0; i < out_i.size(); ++i) {
      EXPECT_EQ(out_i[i].owner, out_l[i].owner);
    }
    EXPECT_GT(out_i.size(), 0u);
    expect_parity("after arc extraction");

    // Keep mutating after the extraction: adds must reuse freed slots.
    add_batch(400);
    expect_parity("after post-extraction adds");

    // Piece + bucket entries ride along identically in both modes.
    const HyperRect piece = stored.front().projected;
    indexed.set_parent_piece(piece, Id{42});
    linear.set_parent_piece(piece, Id{42});
    const core::MigratedBucket bucket{stored.back().projected,
                                      {},
                                      SubId{Id{7}, 1, SubIdKind::kMigrated}};
    indexed.add_migrated_bucket(bucket);
    linear.add_migrated_bucket(bucket);
    expect_parity("with piece and bucket");
  }
}

TEST(MatchIndexParity, ThresholdCrossingAndOverride) {
  workload::WorkloadGenerator gen(workload::table1_spec(), 5);
  ZoneState z(ZoneAddr{}, /*index_threshold=*/16);
  for (std::size_t i = 0; i < 15; ++i) {
    z.add_subscription(make_stored(i, gen.make_subscription()));
  }
  EXPECT_FALSE(z.index_active());
  z.add_subscription(make_stored(15, gen.make_subscription()));
  EXPECT_TRUE(z.index_active());

  // Raising the threshold drops back to the scan; lowering rebuilds.
  const Point p = gen.make_event().point;
  const auto with_index = match_of(z, p);
  z.set_index_threshold(kNever);
  EXPECT_FALSE(z.index_active());
  EXPECT_EQ(match_of(z, p), with_index);
  z.set_index_threshold(0);
  EXPECT_TRUE(z.index_active());
  EXPECT_EQ(match_of(z, p), with_index);
}

// -- end-to-end ---------------------------------------------------------------

// Full-system delivery with the index forced on everywhere (threshold 1)
// must equal brute force over the live subscriptions — the existing
// delivery-exactness property, now exercising the indexed path.
TEST(MatchIndexParity, EndToEndDeliveryEqualsBruteForce) {
  const std::size_t n = 40;
  net::KingLikeTopology::Params tp;
  tp.hosts = n;
  tp.seed = 9;
  net::KingLikeTopology topo(tp);
  sim::Simulator sim;
  net::Network net(sim, topo);
  chord::ChordNet::Params cp;
  cp.seed = 9;
  chord::ChordNet chord(net, cp);
  core::HyperSubSystem::Config cfg;
  cfg.bootstrap = core::BootstrapMode::kOracle;
  cfg.match_index_threshold = 1;
  core::HyperSubSystem sys(chord, cfg);
  workload::WorkloadGenerator gen(workload::table1_spec(), 99);
  core::SchemeOptions opt;
  opt.zone_cfg = {1, 20};
  const auto scheme = sys.add_scheme(gen.scheme(), opt);

  struct Owned {
    net::HostIndex host;
    std::uint32_t iid;
    pubsub::Subscription sub;
  };
  std::vector<Owned> live;
  Rng rng(123);
  for (int i = 0; i < 300; ++i) {
    const auto host = net::HostIndex(rng.index(n));
    const auto sub = gen.make_subscription();
    live.push_back({host, sys.subscribe(host, scheme, sub).iid, sub});
  }
  sim.run();

  for (int e = 0; e < 10; ++e) {
    const std::size_t before = sys.deliveries().size();
    auto ev = gen.make_event();
    sys.publish(net::HostIndex(rng.index(n)), scheme, ev);
    sim.run();
    sys.finalize_events();

    std::multiset<std::pair<std::size_t, std::uint32_t>> got, expect;
    for (std::size_t i = before; i < sys.deliveries().size(); ++i) {
      got.insert({sys.deliveries()[i].subscriber, sys.deliveries()[i].iid});
    }
    for (const auto& o : live) {
      if (o.sub.matches(ev.point)) expect.insert({o.host, o.iid});
    }
    ASSERT_EQ(got, expect) << "event " << e;
  }
  EXPECT_TRUE(sys.check_zone_invariants());
}

}  // namespace
}  // namespace hypersub
