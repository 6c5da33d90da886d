// Model test of one ZoneState under mixed operations: its summary filter
// and its matching.
//
// A seeded random sequence drives a zone, with cover aggregation on and
// off, through staged and one-by-one installs, removals of representatives
// and of quenched coverees (promotions), parent pieces installed, replaced
// and cleared, migrated buckets, ring-arc extractions, index builds across
// the threshold and save() -> restore() round trips. A plain list of the
// stored subscriptions shadows it. After every step:
//   * summary() equals exact_summary() bit for bit (a +0.0 / -0.0
//     difference counts), and equals the model's hull;
//   * match() equals a linear scan of the zone's contents in insertion
//     order, and as a multiset the model's answer.
// Interval bounds come from a small lattice so that many subscriptions
// share a bound and many cover one another.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/wire.hpp"
#include "core/zone_state.hpp"

namespace hypersub {
namespace {

using core::MigratedBucket;
using core::StoredSub;
using core::SubId;
using core::SubIdKind;
using core::ZoneAddr;
using core::ZoneState;

constexpr std::size_t kNever = ~std::size_t{0};
constexpr std::size_t kFullDims = 3;
// The subscheme projects full dimensions 2 and 0, in that order.
constexpr std::size_t kProjected[] = {2, 0};

// -0.0 and +0.0 compare equal but differ in bits: a summary that kept
// whichever zero came first would differ from a fresh fold.
constexpr double kLattice[] = {-0.0, 0.0, 1.0, 2.0, 3.0, 4.0,
                               5.0,  6.0, 7.0, 8.0};

bool same_bits(const HyperRect& a, const HyperRect& b) {
  if (a.dimensions() != b.dimensions()) return false;
  for (std::size_t i = 0; i < a.dimensions(); ++i) {
    if (std::bit_cast<std::uint64_t>(a.dim(i).lo) !=
            std::bit_cast<std::uint64_t>(b.dim(i).lo) ||
        std::bit_cast<std::uint64_t>(a.dim(i).hi) !=
            std::bit_cast<std::uint64_t>(b.dim(i).hi)) {
      return false;
    }
  }
  return true;
}

HyperRect project(const HyperRect& full) {
  std::vector<Interval> dims;
  for (const std::size_t d : kProjected) dims.push_back(full.dim(d));
  return HyperRect(std::move(dims));
}

Point project(const Point& full) {
  Point p;
  for (const std::size_t d : kProjected) p.push_back(full[d]);
  return p;
}

Interval lattice_interval(Rng& rng) {
  double a = kLattice[rng.index(std::size(kLattice))];
  double b = kLattice[rng.index(std::size(kLattice))];
  if (b < a) std::swap(a, b);
  return Interval{a, b};
}

HyperRect lattice_rect(Rng& rng, std::size_t dims) {
  std::vector<Interval> out;
  for (std::size_t i = 0; i < dims; ++i) out.push_back(lattice_interval(rng));
  return HyperRect(std::move(out));
}

Point lattice_point(Rng& rng) {
  // Lattice values and the midpoints between them, plus one step outside.
  Point p;
  for (std::size_t i = 0; i < kFullDims; ++i) {
    p.push_back(0.5 * double(rng.uniform_u64(0, 18)) - 0.5);
  }
  return p;
}

auto key_of(const SubId& s) {
  return std::make_tuple(s.target, s.iid, std::uint8_t(s.kind));
}

void sort_subids(std::vector<SubId>& v) {
  std::sort(v.begin(), v.end(), [](const SubId& a, const SubId& b) {
    return key_of(a) < key_of(b);
  });
}

bool bucket_hit(const MigratedBucket& b, const Point& projected) {
  if (!b.summary.contains(projected)) return false;
  if (b.sub_rects.empty()) return true;
  for (const HyperRect& r : b.sub_rects) {
    if (r.contains(projected)) return true;
  }
  return false;
}

// What the zone stores, in no particular order.
struct Model {
  std::vector<StoredSub> subs;
  std::optional<std::pair<HyperRect, Id>> piece;
  std::vector<MigratedBucket> buckets;

  HyperRect hull() const {
    HyperRect h;
    for (const StoredSub& s : subs) h = h.hull(s.projected);
    if (piece) h = h.hull(piece->first);
    for (const MigratedBucket& b : buckets) h = h.hull(b.summary);
    return h;
  }

  std::vector<SubId> match(const Point& full, const Point& projected) const {
    std::vector<SubId> out;
    for (const StoredSub& s : subs) {
      if (s.sub.matches(full)) out.push_back(s.owner);
    }
    if (piece && piece->first.contains(projected)) {
      out.push_back(SubId{piece->second, 0, SubIdKind::kZone});
    }
    for (const MigratedBucket& b : buckets) {
      if (bucket_hit(b, projected)) out.push_back(b.pointer);
    }
    return out;
  }
};

// The zone's contents scanned linearly in its own insertion order: each
// representative followed by its coverees, then the piece, then buckets.
std::vector<SubId> linear_scan(const ZoneState& z, const Point& full,
                               const Point& projected) {
  std::vector<SubId> out;
  for (const StoredSub& s : z.subscriptions()) {
    if (s.sub.matches(full)) out.push_back(s.owner);
  }
  if (z.parent_piece() && z.parent_piece()->first.contains(projected)) {
    out.push_back(SubId{z.parent_piece()->second, 0, SubIdKind::kZone});
  }
  for (const MigratedBucket& b : z.buckets()) {
    if (bucket_hit(b, projected)) out.push_back(b.pointer);
  }
  return out;
}

struct Config {
  bool cover;
  std::size_t threshold;
  std::uint64_t seed;
};

void PrintTo(const Config& c, std::ostream* os) {
  *os << (c.cover ? "cover" : "plain") << ", threshold "
      << (c.threshold == kNever ? std::string("never")
                                : std::to_string(c.threshold))
      << ", seed " << c.seed;
}

class ZoneSummaryModel : public ::testing::TestWithParam<Config> {};

TEST_P(ZoneSummaryModel, MixedOperationsKeepSummaryExactAndMatchesLinear) {
  const Config cfg = GetParam();
  Rng rng(cfg.seed);
  const auto fresh_zone = [&] {
    return std::make_unique<ZoneState>(ZoneAddr{}, cfg.threshold, cfg.cover);
  };
  std::unique_ptr<ZoneState> z = fresh_zone();
  Model model;
  std::uint32_t next_iid = 1;
  std::size_t most_quenched = 0;
  bool indexed_once = false;

  const auto make_sub = [&] {
    const HyperRect full = lattice_rect(rng, kFullDims);
    return StoredSub{SubId{rng.next_u64(), next_iid++, SubIdKind::kSubscriber},
                     pubsub::Subscription(full), project(full)};
  };

  constexpr int kSteps = 2500;
  for (int step = 0; step < kSteps; ++step) {
    const HyperRect before = z->summary();
    const std::size_t roll = rng.index(100);
    std::string what;
    if (roll < 30 || model.subs.empty()) {
      what = "add";
      const StoredSub s = make_sub();
      model.subs.push_back(s);
      const bool grew = z->add_subscription(s);
      EXPECT_EQ(grew, !(z->summary() == before)) << step;
    } else if (roll < 38) {
      what = "stage";
      const std::size_t n = 1 + rng.index(12);
      for (std::size_t i = 0; i < n; ++i) {
        const StoredSub s = make_sub();
        model.subs.push_back(s);
        z->stage_subscription(s);
      }
      if (rng.chance(0.7)) z->build_index_if_due();
    } else if (roll < 66) {
      what = "remove";
      const std::size_t at = rng.index(model.subs.size());
      const StoredSub victim = model.subs[at];
      model.subs.erase(model.subs.begin() + std::ptrdiff_t(at));
      const ZoneState::Removal got =
          z->remove_subscription(victim.owner, victim.sub.range());
      ASSERT_TRUE(got.removed) << step;
      EXPECT_EQ(got.summary_changed, !(z->summary() == before)) << step;
      EXPECT_FALSE(z->has_subscription(victim.owner));
    } else if (roll < 68) {
      what = "remove-missing";
      EXPECT_FALSE(z->remove_subscription(
                        SubId{rng.next_u64(), 0, SubIdKind::kSubscriber},
                        lattice_rect(rng, kFullDims))
                       .removed);
      EXPECT_TRUE(same_bits(z->summary(), before)) << step;
    } else if (roll < 80) {
      what = "piece";
      HyperRect piece;
      if (rng.chance(0.75)) piece = lattice_rect(rng, std::size(kProjected));
      const Id parent_key = rng.next_u64();
      if (piece.empty()) {
        model.piece.reset();
      } else {
        model.piece = {piece, parent_key};
      }
      const bool changed = z->set_parent_piece(piece, parent_key);
      EXPECT_EQ(changed, !(z->summary() == before)) << step;
    } else if (roll < 84) {
      what = "bucket";
      MigratedBucket b;
      const std::size_t n = rng.index(3);  // 0: a bare, hull-only bucket
      for (std::size_t i = 0; i < n; ++i) {
        b.sub_rects.push_back(lattice_rect(rng, std::size(kProjected)));
        b.summary = b.summary.hull(b.sub_rects.back());
      }
      if (n == 0) b.summary = lattice_rect(rng, std::size(kProjected));
      b.pointer = SubId{rng.next_u64(), next_iid++, SubIdKind::kMigrated};
      model.buckets.push_back(b);
      z->add_migrated_bucket(b);
    } else if (roll < 90) {
      what = "extract";
      const Id lo = rng.next_u64();
      const Id hi = lo + rng.uniform_u64(0, ~Id{0} / 3);
      std::vector<SubId> want;
      std::vector<StoredSub> kept;
      for (const StoredSub& s : model.subs) {
        if (ring::in_closed_open(s.owner.target, lo, hi)) {
          want.push_back(s.owner);
        } else {
          kept.push_back(s);
        }
      }
      model.subs = std::move(kept);
      std::vector<SubId> got;
      for (const StoredSub& s : z->extract_subscribers_in_arc(lo, hi)) {
        got.push_back(s.owner);
      }
      sort_subids(got);
      sort_subids(want);
      EXPECT_EQ(got, want) << step;
    } else {
      what = "restore";
      common::ByteWriter w;
      z->save(w);
      std::unique_ptr<ZoneState> back = fresh_zone();
      common::ByteReader r(w.data());
      back->restore(r);
      EXPECT_EQ(back->fingerprint(), z->fingerprint()) << step;
      EXPECT_EQ(back->index_active(), z->index_active()) << step;
      common::ByteWriter again;
      back->save(again);
      EXPECT_EQ(again.data(), w.data()) << step;
      z = std::move(back);
    }

    ASSERT_TRUE(same_bits(z->summary(), z->exact_summary()))
        << "step " << step << " (" << what << "): summary "
        << z->summary().to_string() << ", exact "
        << z->exact_summary().to_string();
    ASSERT_EQ(z->summary(), model.hull()) << "step " << step << " (" << what
                                          << ")";
    ASSERT_EQ(z->subscription_count(), model.subs.size()) << step;
    for (int e = 0; e < 3; ++e) {
      const Point full = lattice_point(rng);
      const Point projected = project(full);
      std::vector<SubId> got;
      z->match(full, projected, got);
      ASSERT_EQ(got, linear_scan(*z, full, projected))
          << "step " << step << " (" << what << ")";
      std::vector<SubId> want = model.match(full, projected);
      sort_subids(got);
      sort_subids(want);
      ASSERT_EQ(got, want) << "step " << step << " (" << what << ")";
    }
    most_quenched = std::max(most_quenched, z->cover_quenched());
    indexed_once = indexed_once || z->index_active();
  }
  // The paths under test were taken.
  if (cfg.cover) {
    EXPECT_GT(most_quenched, 0u);
    EXPECT_GT(z->cover_promotions(), 0u);
  }
  EXPECT_EQ(indexed_once, cfg.threshold != kNever);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ZoneSummaryModel,
    ::testing::Values(Config{false, kNever, 1}, Config{false, 8, 2},
                      Config{true, kNever, 3}, Config{true, 8, 4},
                      Config{true, 8, 5}),
    [](const ::testing::TestParamInfo<Config>& p) {
      return std::string(p.param.cover ? "cover" : "plain") +
             (p.param.threshold == kNever ? "_scan" : "_indexed") +
             "_seed" + std::to_string(p.param.seed);
    });

}  // namespace
}  // namespace hypersub
