// Locality-preserving hashing tests: zone tree geometry, code/key mapping,
// Algorithm 1 (smallest covering zone / leaf zone), rotation.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "lph/lph.hpp"
#include "lph/zone.hpp"

namespace hypersub::lph {
namespace {

HyperRect unit2() { return HyperRect::uniform(2, 0.0, 1.0); }

// ---------------------------------------------------------------------------
// zone tree navigation
// ---------------------------------------------------------------------------

TEST(ZoneSystem, RootAndLevels) {
  const ZoneSystem zs(unit2(), {1, 20});
  EXPECT_EQ(zs.base(), 2);
  EXPECT_EQ(zs.max_level(), 20);
  EXPECT_EQ(zs.root(), (Zone{0, 0}));
  EXPECT_FALSE(zs.is_leaf(zs.root()));
}

TEST(ZoneSystem, ChildParentRoundTrip) {
  const ZoneSystem zs(unit2(), {2, 20});  // base 4, 10 levels
  EXPECT_EQ(zs.base(), 4);
  EXPECT_EQ(zs.max_level(), 10);
  Zone z = zs.root();
  z = zs.child(z, 3);
  z = zs.child(z, 1);
  z = zs.child(z, 2);
  EXPECT_EQ(z.level, 3);
  EXPECT_EQ(zs.digit(z, 1), 3);
  EXPECT_EQ(zs.digit(z, 2), 1);
  EXPECT_EQ(zs.digit(z, 3), 2);
  EXPECT_EQ(zs.parent(zs.parent(zs.parent(z))), zs.root());
}

TEST(ZoneSystem, ExtentMatchesPaperFigure1) {
  // Figure 1 of the paper: base 2, 2 dimensions. The first division splits
  // dimension 0; code "0" is the left half, "1" the right half. The second
  // division splits dimension 1.
  const ZoneSystem zs(unit2(), {1, 20});
  EXPECT_EQ(zs.extent(Zone{0, 1}), HyperRect({{0, 0.5}, {0, 1}}));
  EXPECT_EQ(zs.extent(Zone{1, 1}), HyperRect({{0.5, 1}, {0, 1}}));
  // code "01": left half, then upper half of dim 1.
  EXPECT_EQ(zs.extent(Zone{0b01, 2}), HyperRect({{0, 0.5}, {0.5, 1}}));
  // code "110": right, upper, then dim 0 again -> left quarter of the right.
  EXPECT_EQ(zs.extent(Zone{0b110, 3}),
            HyperRect({{0.5, 0.75}, {0.5, 1}}));
}

TEST(ZoneSystem, ChildrenTileParent) {
  Rng rng(5);
  for (const int bb : {1, 2}) {
    const ZoneSystem zs(unit2(), {bb, 20});
    Zone z = zs.root();
    for (int step = 0; step < 5; ++step) {
      const HyperRect pe = zs.extent(z);
      double vol = 0.0;
      for (int c = 0; c < zs.base(); ++c) {
        const HyperRect ce = zs.extent(zs.child(z, c));
        EXPECT_TRUE(pe.covers(ce));
        vol += ce.volume_fraction(pe);
      }
      EXPECT_NEAR(vol, 1.0, 1e-12);
      z = zs.child(z, int(rng.index(std::size_t(zs.base()))));
    }
  }
}

// ---------------------------------------------------------------------------
// key mapping
// ---------------------------------------------------------------------------

TEST(ZoneSystem, ExtentContainsAgreesWithExtent) {
  // The allocation-free containment test replays the same arithmetic as
  // extent(): identical answers, boundary points included.
  Rng rng(23);
  for (const int bb : {1, 2}) {
    const ZoneSystem zs(HyperRect({{0, 100}, {0, 10}, {-1, 1}}), {bb, 30});
    for (int t = 0; t < 400; ++t) {
      Zone z = zs.root();
      const int level = int(rng.index(std::size_t(zs.max_level()) + 1));
      while (z.level < level) z = zs.child(z, int(rng.index(zs.base())));
      const HyperRect ext = zs.extent(z);
      // Half the probes inside the extent, half anywhere in the space.
      const HyperRect& from = t % 2 ? ext : zs.space();
      Point p(3);
      for (std::size_t j = 0; j < 3; ++j) {
        p[j] = rng.uniform(from.dim(j).lo, from.dim(j).hi);
      }
      EXPECT_EQ(zs.extent_contains(z, p), ext.contains(p));
      // The extent's own corners lie inside (closed intervals).
      Point lo(3), hi(3);
      for (std::size_t j = 0; j < 3; ++j) {
        lo[j] = ext.dim(j).lo;
        hi[j] = ext.dim(j).hi;
      }
      EXPECT_TRUE(zs.extent_contains(z, lo));
      EXPECT_TRUE(zs.extent_contains(z, hi));
    }
  }
}

TEST(ZoneSystem, KeyPadsWithOnes) {
  const ZoneSystem zs(unit2(), {1, 20});
  // Root: all one-bits.
  EXPECT_EQ(zs.key(zs.root()), ~Id{0});
  // Level-1 zone "0": 0 followed by 63 ones.
  EXPECT_EQ(zs.key(Zone{0, 1}), ~Id{0} >> 1);
  // Level-1 zone "1": all ones again in the top bit plus padding.
  EXPECT_EQ(zs.key(Zone{1, 1}), ~Id{0});
  // Level-2 zone "10".
  EXPECT_EQ(zs.key(Zone{0b10, 2}), (Id{0b10} << 62) | (~Id{0} >> 2));
}

TEST(ZoneSystem, ParentKeyIsKeyOfLastChild) {
  // key(cz) equals key of its (β-1)-th child all the way down — the
  // locality property that keeps zone chains on nearby nodes.
  for (const int bb : {1, 2, 4}) {
    const ZoneSystem zs(HyperRect::uniform(3, 0, 1), {bb, 20});
    Zone z{3 % ((1u << bb)), 1};
    for (int l = 1; l < zs.max_level(); ++l) {
      const Zone last = zs.child(z, zs.base() - 1);
      EXPECT_EQ(zs.key(z), zs.key(last));
      z = zs.child(z, 0);
    }
  }
}

TEST(ZoneSystem, KeysDistinctAcrossSiblings) {
  const ZoneSystem zs(unit2(), {1, 20});
  const Zone a{0b0, 1}, b{0b1, 1};
  EXPECT_NE(zs.key(a), zs.key(b));
}

// ---------------------------------------------------------------------------
// Algorithm 1: locate
// ---------------------------------------------------------------------------

TEST(Locate, PointGoesToLeafContainingIt) {
  for (const int bb : {1, 2}) {
    const ZoneSystem zs(unit2(), {bb, 20});
    Rng rng(31);
    for (int i = 0; i < 500; ++i) {
      const Point p{rng.uniform(0, 1), rng.uniform(0, 1)};
      const Zone z = zs.locate(p);
      EXPECT_EQ(z.level, zs.max_level());
      EXPECT_TRUE(zs.extent(z).contains(p));
    }
  }
}

TEST(Locate, DomainTopBelongsToLastZone) {
  const ZoneSystem zs(unit2(), {1, 20});
  const Zone z = zs.locate(Point{1.0, 1.0});
  EXPECT_EQ(z.level, zs.max_level());
  EXPECT_TRUE(zs.extent(z).contains(Point{1.0, 1.0}));
}

TEST(Locate, RectSmallestCoveringZone) {
  const ZoneSystem zs(unit2(), {1, 20});
  Rng rng(32);
  for (int i = 0; i < 500; ++i) {
    const double w = rng.uniform(0.001, 0.3);
    const double h = rng.uniform(0.001, 0.3);
    const double x = rng.uniform(0, 1 - w);
    const double y = rng.uniform(0, 1 - h);
    const HyperRect r({{x, x + w}, {y, y + h}});
    const Zone z = zs.locate(r);
    // Covering:
    EXPECT_TRUE(zs.extent(z).covers(r));
    // Minimal: no child of z also covers r.
    if (!zs.is_leaf(z)) {
      for (int c = 0; c < zs.base(); ++c) {
        EXPECT_FALSE(zs.extent(zs.child(z, c)).covers(r));
      }
    }
  }
}

TEST(Locate, RectStraddlingFirstSplitMapsToRoot) {
  const ZoneSystem zs(unit2(), {1, 20});
  const HyperRect r({{0.49, 0.51}, {0.1, 0.2}});
  EXPECT_EQ(zs.locate(r), zs.root());
}

TEST(Locate, FullDomainMapsToRoot) {
  const ZoneSystem zs(unit2(), {1, 20});
  EXPECT_EQ(zs.locate(unit2()), zs.root());
}

TEST(Locate, PointZoneIsDescendantOfCoveringRectZone) {
  // Locality: if a point lies inside a rect, the point's leaf zone is a
  // descendant of the rect's covering zone (prefix relationship on codes).
  const ZoneSystem zs(unit2(), {1, 20});
  Rng rng(33);
  for (int i = 0; i < 300; ++i) {
    const double w = rng.uniform(0.001, 0.2);
    const double h = rng.uniform(0.001, 0.2);
    const double x = rng.uniform(0, 1 - w);
    const double y = rng.uniform(0, 1 - h);
    const HyperRect r({{x, x + w}, {y, y + h}});
    const Point p{x + w / 2, y + h / 2};
    const Zone rz = zs.locate(r);
    const Zone pz = zs.locate(p);
    ASSERT_GE(pz.level, rz.level);
    // rz's code is a prefix of pz's code.
    EXPECT_EQ(pz.code >> ((pz.level - rz.level) * zs.base_bits()), rz.code);
  }
}

// ---------------------------------------------------------------------------
// LPH + rotation
// ---------------------------------------------------------------------------

TEST(Lph, HashSubscriptionAndEventAgree) {
  const ZoneSystem zs(unit2(), {1, 20});
  const HyperRect r({{0.1, 0.12}, {0.3, 0.33}});
  const auto rs = hash_subscription(zs, r, 0);
  EXPECT_EQ(rs.key, zs.key(rs.zone));
  const auto es = hash_event(zs, Point{0.11, 0.31}, 0);
  EXPECT_EQ(es.zone.level, zs.max_level());
}

TEST(Lph, RotationShiftsKeysUniformly) {
  const ZoneSystem zs(unit2(), {1, 20});
  const Id rot = rotation_offset("schemeA");
  EXPECT_NE(rot, 0u);
  const HyperRect r({{0.1, 0.12}, {0.3, 0.33}});
  const auto plain = hash_subscription(zs, r, 0);
  const auto rotated = hash_subscription(zs, r, rot);
  EXPECT_EQ(rotated.zone, plain.zone);
  EXPECT_EQ(rotated.key, plain.key + rot);
}

TEST(Lph, DifferentSchemesGetDifferentOffsets) {
  EXPECT_NE(rotation_offset("a"), rotation_offset("b"));
  EXPECT_EQ(rotation_offset("a"), rotation_offset("a"));
}

TEST(Lph, NearbyPointsShareKeyPrefixes) {
  // The locality property: two points in the same leaf zone hash to the
  // same key; points in sibling zones differ only in low digits.
  const ZoneSystem zs(unit2(), {1, 20});
  const auto a = hash_event(zs, Point{0.2000001, 0.7000001}, 0);
  const auto b = hash_event(zs, Point{0.2000002, 0.7000002}, 0);
  EXPECT_EQ(a.key, b.key);
  const auto far = hash_event(zs, Point{0.9, 0.1}, 0);
  EXPECT_NE(a.key, far.key);
}

class LphBaseTest : public ::testing::TestWithParam<int> {};

TEST_P(LphBaseTest, EventZoneDescendsFromSubscriptionZone) {
  const int bb = GetParam();
  const ZoneSystem zs(HyperRect::uniform(4, 0, 100), {bb, 20});
  Rng rng(44);
  for (int i = 0; i < 200; ++i) {
    std::vector<Interval> dims;
    Point p;
    for (int d = 0; d < 4; ++d) {
      const double w = rng.uniform(0.1, 10.0);
      const double lo = rng.uniform(0.0, 100.0 - w);
      dims.push_back({lo, lo + w});
      p.push_back(rng.uniform(lo, lo + w));
    }
    const HyperRect r(std::move(dims));
    const Zone rz = zs.locate(r);
    const Zone pz = zs.locate(p);
    EXPECT_EQ(pz.code >> ((pz.level - rz.level) * zs.base_bits()), rz.code);
  }
}

INSTANTIATE_TEST_SUITE_P(Bases, LphBaseTest, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace hypersub::lph
