// SubArena + arena-backed ZoneState parity: the SoA storage must behave
// exactly like the plain vector<StoredSub> layout it replaced. A
// reference model (the old layout, reimplemented here) shadows a
// ZoneState through randomized add/remove/extract/piece/bucket sequences;
// match results and summary filters must stay identical at every step.
// Also covers set_index_threshold re-tune transitions (build-on-lower /
// drop-on-raise) and SubArena slot/pool recycling.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/sub_arena.hpp"
#include "core/zone_state.hpp"
#include "workload/scheme_factory.hpp"
#include "workload/zipf_workload.hpp"

namespace hypersub {
namespace {

using core::MigratedBucket;
using core::StoredSub;
using core::SubArena;
using core::SubId;
using core::SubIdKind;
using core::ZoneAddr;
using core::ZoneState;

constexpr std::size_t kNever = ~std::size_t{0};

StoredSub make_stored(std::size_t i, const pubsub::Subscription& sub) {
  const Id owner = Id(i) * 0x9E3779B97F4A7C15ull + 13;
  return StoredSub{SubId{owner, std::uint32_t(i), SubIdKind::kSubscriber},
                   sub, sub.range()};
}

// -- SubArena unit properties -------------------------------------------------

TEST(SubArena, StoresAndMaterializesRoundTrip) {
  workload::WorkloadGenerator gen(workload::table1_spec(), 5);
  SubArena arena;
  std::vector<StoredSub> ref;
  std::vector<SubArena::Ref> refs;
  for (std::size_t i = 0; i < 100; ++i) {
    ref.push_back(make_stored(i, gen.make_subscription()));
    refs.push_back(arena.add(ref.back()));
  }
  ASSERT_EQ(arena.size(), 100u);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(arena.owner(refs[i]), ref[i].owner);
    const StoredSub m = arena.materialize(refs[i]);
    EXPECT_EQ(m.sub.range(), ref[i].sub.range());
    EXPECT_EQ(m.projected, ref[i].projected);
  }
  // Exact containment agrees with the heap-backed subscription.
  for (int e = 0; e < 50; ++e) {
    const Point p = gen.make_event().point;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(arena.full_contains(refs[i], p), ref[i].sub.matches(p));
    }
  }
}

TEST(SubArena, RecyclesSlotsAndPoolSpaceWhenDimensionsMatch) {
  workload::WorkloadGenerator gen(workload::table1_spec(), 6);
  SubArena arena;
  const auto a = arena.add(make_stored(0, gen.make_subscription()));
  const auto b = arena.add(make_stored(1, gen.make_subscription()));
  arena.remove(b);
  arena.remove(a);
  EXPECT_TRUE(arena.empty());
  // Same dimensionality: the freed slots (LIFO) are reused in place.
  const auto c = arena.add(make_stored(2, gen.make_subscription()));
  const auto d = arena.add(make_stored(3, gen.make_subscription()));
  EXPECT_EQ(c, a);
  EXPECT_EQ(d, b);
  EXPECT_EQ(arena.size(), 2u);
  EXPECT_EQ(arena.owner(c).iid, 2u);
  EXPECT_EQ(arena.owner(d).iid, 3u);
}

// -- reference model of the old vector<StoredSub> layout ----------------------

struct RefModel {
  std::vector<StoredSub> subs;
  std::optional<std::pair<HyperRect, Id>> piece;
  std::vector<MigratedBucket> buckets;

  void match(const Point& full, const Point& projected,
             std::vector<SubId>& out) const {
    for (const auto& s : subs) {
      if (s.sub.matches(full)) out.push_back(s.owner);
    }
    if (piece && piece->first.contains(projected)) {
      out.push_back(SubId{piece->second, 0, SubIdKind::kZone});
    }
    for (const auto& b : buckets) {
      if (b.summary.contains(projected)) out.push_back(b.pointer);
    }
  }

  HyperRect summary() const {
    HyperRect s;
    for (const auto& sub : subs) s = s.hull(sub.projected);
    if (piece) s = s.hull(piece->first);
    for (const auto& b : buckets) s = s.hull(b.summary);
    return s;
  }
};

void expect_same_matches(const ZoneState& z, const RefModel& ref,
                         workload::WorkloadGenerator& gen, int events) {
  for (int e = 0; e < events; ++e) {
    const Point p = gen.make_event().point;
    std::vector<SubId> got, want;
    z.match(p, p, got);
    ref.match(p, p, want);
    ASSERT_EQ(got, want) << "event " << e;
  }
  EXPECT_EQ(z.summary(), ref.summary());
}

// Randomized mutation parity across every mutation path, with and without
// the index (both thresholds exercise the same arena storage).
class ArenaParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ArenaParity, RandomizedMutationsMatchOldLayout) {
  const std::size_t threshold = GetParam();
  workload::WorkloadGenerator gen(workload::table1_spec(), 31);
  Rng rng(91);
  ZoneState z(ZoneAddr{0, 0, {0, 0}}, threshold);
  RefModel ref;

  std::size_t next = 0;
  for (int round = 0; round < 6; ++round) {
    // Adds.
    for (int i = 0; i < 120; ++i) {
      const StoredSub s = make_stored(next++, gen.make_subscription());
      ref.subs.push_back(s);
      z.add_subscription(s);
    }
    // Random removals (by owner, matching the old linear-scan semantics).
    for (int i = 0; i < 30 && !ref.subs.empty(); ++i) {
      const std::size_t at = rng.index(ref.subs.size());
      const SubId victim = ref.subs[at].owner;
      const auto got =
          z.remove_subscription(victim, ref.subs[at].sub.range());
      ASSERT_TRUE(got.removed);
      EXPECT_FALSE(z.has_subscription(victim));
      ref.subs.erase(ref.subs.begin() + std::ptrdiff_t(at));
    }
    // Arc extraction (migration path): same victims, same order.
    if (round % 2 == 1) {
      const Id lo = rng.next_u64();
      const Id hi = lo + (~Id{0}) / 5;
      const auto out = z.extract_subscribers_in_arc(lo, hi);
      std::vector<StoredSub> expect;
      std::vector<StoredSub> kept;
      for (const auto& s : ref.subs) {
        const Id t = s.owner.target;
        const bool in_arc = lo <= hi ? (t >= lo && t < hi)
                                     : (t >= lo || t < hi);
        (in_arc ? expect : kept).push_back(s);
      }
      ref.subs = std::move(kept);
      ASSERT_EQ(out.size(), expect.size());
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].owner, expect[i].owner);
        EXPECT_EQ(out[i].sub.range(), expect[i].sub.range());
      }
      // The contract leaves the summary unshrunk after extraction; bring
      // both sides to the exact cover before comparing further.
      z.recompute_summary();
    }
    // Parent piece install/replace.
    const HyperRect piece = gen.make_subscription().range();
    ref.piece = {piece, Id(round)};
    z.set_parent_piece(piece, Id(round));
    // A migrated bucket every other round.
    if (round % 2 == 0) {
      const MigratedBucket b{gen.make_subscription().range(),
                             {},
                             SubId{Id(round), std::uint32_t(round),
                                   SubIdKind::kMigrated}};
      ref.buckets.push_back(b);
      z.add_migrated_bucket(b);
    }
    expect_same_matches(z, ref, gen, 60);
  }
  EXPECT_EQ(z.subscription_count(), ref.subs.size());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ArenaParity,
                         ::testing::Values(kNever, std::size_t{64},
                                           std::size_t{1}));

// -- set_index_threshold re-tune transitions ----------------------------------

TEST(IndexThreshold, LoweringBelowCountBuildsRaisingAboveDrops) {
  workload::WorkloadGenerator gen(workload::table1_spec(), 41);
  ZoneState z(ZoneAddr{0, 0, {0, 0}});  // default threshold 64
  RefModel ref;
  for (std::size_t i = 0; i < 40; ++i) {
    const StoredSub s = make_stored(i, gen.make_subscription());
    ref.subs.push_back(s);
    z.add_subscription(s);
  }
  EXPECT_FALSE(z.index_active());

  // Lower the threshold below the live count: the index builds eagerly.
  z.set_index_threshold(10);
  EXPECT_TRUE(z.index_active());
  expect_same_matches(z, ref, gen, 40);

  // Raise it back above the count: the index drops, scan takes over.
  z.set_index_threshold(kNever);
  EXPECT_FALSE(z.index_active());
  expect_same_matches(z, ref, gen, 40);

  // Re-lower and mutate through the indexed path again.
  z.set_index_threshold(1);
  EXPECT_TRUE(z.index_active());
  for (std::size_t i = 40; i < 60; ++i) {
    const StoredSub s = make_stored(i, gen.make_subscription());
    ref.subs.push_back(s);
    z.add_subscription(s);
  }
  expect_same_matches(z, ref, gen, 40);

  // Equal-to-count boundary: threshold == count keeps the index (>=).
  z.set_index_threshold(ref.subs.size());
  EXPECT_TRUE(z.index_active());
  z.set_index_threshold(ref.subs.size() + 1);
  EXPECT_FALSE(z.index_active());
  expect_same_matches(z, ref, gen, 40);
}

}  // namespace
}  // namespace hypersub
