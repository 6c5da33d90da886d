// Model test of ZoneStore's saturated-zone runs. Random single-zone sets
// and clears and run writes (merging, splitting, wrapping past the last
// code) drive both zone stores of one node, and after every step the store
// must agree with a plain std::set of (scheme, subscheme, level, code): the
// membership test, the count, the per-key level mask the event path reads,
// and the checkpoint/transfer rows, which must be byte for byte the rows
// a per-key level-mask store writes for the same set. Last, the direct
// fingerprint of a saturated zone against the ZoneState it stands for.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/wire.hpp"
#include "core/hypersub_node.hpp"
#include "core/hypersub_system.hpp"
#include "core/subscheme.hpp"

namespace hypersub::core {
namespace {

using Zone = std::tuple<std::uint32_t, std::uint32_t, int, std::uint64_t>;

struct Layouts {
  // Scheme 0: three attributes in two rotated binary subschemes of depth
  // 12. Scheme 1: one unrotated base-4 subscheme of depth 6, so its
  // rightmost codes carry the all-ones key.
  SchemeTable schemes;
  Layouts() {
    schemes.push_back(std::make_unique<SchemeRuntime>(
        pubsub::Scheme("model-a", {{"x", Interval{0.0, 1.0}},
                                   {"y", Interval{0.0, 1.0}},
                                   {"z", Interval{0.0, 1.0}}}),
        SchemeOptions{{1, 12}, true, {{0, 1}, {2}}}));
    schemes.push_back(std::make_unique<SchemeRuntime>(
        pubsub::Scheme("model-b", {{"u", Interval{0.0, 8.0}},
                                   {"v", Interval{0.0, 8.0}}}),
        SchemeOptions{{2, 12}, false, {}}));
  }

  const Subscheme& ss(std::uint32_t scheme, std::uint32_t ssi) const {
    return schemes[scheme]->subscheme(ssi);
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> all() const {
    return {{0, 0}, {0, 1}, {1, 0}};
  }
};

ZoneAddr addr_of(const Zone& z) {
  const auto& [scheme, ssi, level, code] = z;
  return ZoneAddr{scheme, ssi, lph::Zone{code, level}};
}

/// Level mask of the zones of `ref` under `key`, per (scheme, subscheme):
/// bit L is set when the level-L zone `key` addresses is in the set.
std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>>
expected_masks(const Layouts& lay, const std::set<Zone>& ref, Id key) {
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> out;
  for (const auto& [scheme, ssi] : lay.all()) {
    const Subscheme& ss = lay.ss(scheme, ssi);
    std::uint64_t mask = 0;
    for (int level = 1; level <= ss.zones().max_level(); ++level) {
      const lph::Zone z = ss.zone_at(key, level);
      if (ss.zone_key(z) == key &&
          ref.contains(Zone{scheme, ssi, level, z.code})) {
        mask |= std::uint64_t{1} << level;
      }
    }
    if (mask != 0) out.emplace_back(scheme, ssi, mask);
  }
  return out;
}

/// The rows a per-key level-mask store writes for `ref`: one row per
/// (scheme, subscheme, key) whose key passes `keep`, in sorted order.
template <typename Keep>
std::vector<std::uint8_t> expected_rows(const Layouts& lay,
                                        const std::set<Zone>& ref,
                                        Keep&& keep) {
  std::map<std::tuple<std::uint32_t, std::uint32_t, Id>, std::uint64_t> rows;
  for (const auto& [scheme, ssi, level, code] : ref) {
    const Id key = lay.ss(scheme, ssi).zone_key(lph::Zone{code, level});
    if (keep(key)) rows[{scheme, ssi, key}] |= std::uint64_t{1} << level;
  }
  common::ByteWriter w;
  w.u32(std::uint32_t(rows.size()));
  for (const auto& [row, mask] : rows) {
    w.u32(std::get<0>(row));
    w.u32(std::get<1>(row));
    w.u64(std::get<2>(row));
    w.u64(mask);
  }
  return w.take();
}

struct Model {
  const Layouts& lay;
  ZoneStore& store;
  std::set<Zone> ref;
  Rng& rng;

  Id key_of(const Zone& z) const {
    return lay.ss(std::get<0>(z), std::get<1>(z))
        .zone_key(lph::Zone{std::get<3>(z), std::get<2>(z)});
  }

  /// A zone near one of a few hot spots — the two ends of each level, so
  /// runs meet across the key wrap, and a middle band — so sets and clears
  /// keep merging and splitting the same runs.
  Zone draw() {
    const auto pairs = lay.all();
    const auto [scheme, ssi] = pairs[rng.index(pairs.size())];
    const lph::ZoneSystem& zs = lay.ss(scheme, ssi).zones();
    const int level = 1 + int(rng.index(std::size_t(zs.max_level())));
    const std::uint64_t n = std::uint64_t{1} << (level * zs.base_bits());
    const std::uint64_t spot = n < 64 ? 0 : rng.index(3);
    std::uint64_t code = rng.index(std::size_t(std::min<std::uint64_t>(n, 24)));
    if (spot == 1) code = n - 1 - code;
    if (spot == 2) code = n / 2 - std::min<std::uint64_t>(n, 24) / 2 + code;
    return Zone{scheme, ssi, level, code};
  }

  void set(const Zone& z) {
    EXPECT_EQ(store.set_saturated(addr_of(z)), ref.insert(z).second);
  }
  void clear(const Zone& z) {
    EXPECT_EQ(store.clear_saturated(addr_of(z)), ref.erase(z) == 1);
  }
  /// Saturate a run of up to 40 codes from `z` on (the cascade's write),
  /// wrapping past the level's last code into a second run from code 0 as
  /// a host arc across the key wrap does. The cleared sub-ranges it
  /// reports must be exactly the codes the reference gains.
  void set_run(const Zone& z) {
    const auto& [scheme, ssi, level, code] = z;
    const int bits = lay.ss(scheme, ssi).zones().base_bits();
    const std::uint64_t n = std::uint64_t{1} << (level * bits);
    std::uint64_t len = 1 + rng.index(40);
    std::vector<std::pair<Id, Id>> runs{{code, std::min(n, code + len)}};
    if (code + len > n) runs.emplace_back(0, std::min(n, code + len - n));
    for (const auto& [lo, hi] : runs) {
      std::vector<Id> expect;
      for (Id c = lo; c < hi; ++c) {
        if (ref.insert(Zone{scheme, ssi, level, c}).second) expect.push_back(c);
      }
      std::vector<Id> got;
      const std::uint64_t added = store.set_saturated_run(
          scheme, ssi, level, lo, hi, [&](Id a, Id b) {
            EXPECT_LT(a, b);
            for (Id c = a; c < b; ++c) got.push_back(c);
          });
      EXPECT_EQ(got, expect);
      EXPECT_EQ(added, expect.size());
    }
  }

  void check(const Zone& probe) {
    ASSERT_EQ(store.saturated_count(), ref.size());
    for (int i = 0; i < 8; ++i) {
      const Zone z = i == 0 ? probe : draw();
      EXPECT_EQ(store.saturated(addr_of(z)), ref.contains(z));
      // The key of a zone and the key of its parent: the targets an event
      // message carries.
      for (const Id key : {key_of(z), key_of(Zone{std::get<0>(z),
                                                  std::get<1>(z),
                                                  std::get<2>(z) - 1,
                                                  std::get<3>(z) >>
                                                      lay.ss(std::get<0>(z),
                                                             std::get<1>(z))
                                                          .zones()
                                                          .base_bits()})}) {
        std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>>
            got;
        store.for_each_saturated_at(key, [&](std::uint32_t scheme,
                                             std::uint32_t ssi,
                                             std::uint64_t mask) {
          got.emplace_back(scheme, ssi, mask);
        });
        EXPECT_EQ(got, expected_masks(lay, ref, key)) << std::hex << key;
      }
    }
  }

  void check_rows() {
    const auto all = [](Id) { return true; };
    common::ByteWriter w;
    EXPECT_EQ(store.save_saturated(w, all), ref.size());
    ASSERT_EQ(w.data(), expected_rows(lay, ref, all));
    // A transfer arc that wraps past the top of the key ring.
    const Id lo = rng.uniform_u64(0, ~Id{0});
    const Id hi = lo + (Id{1} << 62);
    const auto in_arc = [&](Id key) {
      return lo < hi ? key > lo && key <= hi : key > lo || key <= hi;
    };
    common::ByteWriter arc;
    store.save_saturated(arc, in_arc);
    EXPECT_EQ(arc.data(), expected_rows(lay, ref, in_arc));
  }
};

void restore_round_trip(const Model& m, ZoneStore& fresh) {
  const auto all = [](Id) { return true; };
  common::ByteWriter w;
  m.store.save_saturated(w, all);
  fresh.clear();
  common::ByteReader r(w.data());
  fresh.restore_saturated(r);
  EXPECT_EQ(fresh.saturated_count(), m.ref.size());
  common::ByteWriter again;
  fresh.save_saturated(again, all);
  EXPECT_EQ(again.data(), w.data());
}

TEST(ZoneStoreModel, SaturatedSetMatchesReference) {
  const Layouts lay;
  HyperSubNode node(0, 0, lay.schemes);
  HyperSubNode spare(1, 1, lay.schemes);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    node.reset_surrogate_state();
    Model models[] = {{lay, node.primary(), {}, rng},
                      {lay, node.replicas(), {}, rng}};
    for (int step = 0; step < 3000; ++step) {
      Model& m = models[rng.index(2)];
      const Zone z = m.draw();
      // Mostly sets, so long runs build up before clears split them.
      const std::size_t op = rng.index(10);
      if (op < 4) {
        m.set(z);
      } else if (op < 6) {
        m.set_run(z);
      } else {
        m.clear(z);
      }
      m.check(z);
      if (step % 250 == 0) {
        m.check_rows();
        restore_round_trip(m, spare.primary());
      }
    }
    for (Model& m : models) {
      m.check_rows();
      restore_round_trip(m, spare.replicas());
    }
  }
}

// zone_content_digest folds each saturated zone in through
// saturated_fingerprint(); it must equal the fingerprint of the ZoneState
// seed_saturated() builds, on dyadic trees and on bounds whose splits
// round (where the cached child pieces are clipped).
TEST(ZoneStoreModel, SaturatedFingerprintMatchesSeededZoneState) {
  Layouts lay;
  lay.schemes.push_back(std::make_unique<SchemeRuntime>(
      pubsub::Scheme("model-odd", {{"x", Interval{0.1, 0.7}},
                                   {"y", Interval{0.0, 1.0 / 3.0}}}),
      SchemeOptions{{1, 16}, true, {}}));
  Rng rng(5);
  for (const auto& [scheme, ssi] :
       std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {0, 0}, {0, 1}, {1, 0}, {2, 0}}) {
    const Subscheme& ss = lay.ss(scheme, ssi);
    const lph::ZoneSystem& zsys = ss.zones();
    for (int level = 1; level <= zsys.max_level(); ++level) {
      for (int i = 0; i < 20; ++i) {
        const lph::Zone z{rng.uniform_u64(0, (std::uint64_t{1}
                                              << (level * zsys.base_bits())) -
                                                 1),
                          level};
        ZoneState zs(ZoneAddr{scheme, ssi, z});
        seed_saturated(zs, ss, z);
        EXPECT_EQ(saturated_fingerprint(ss, z), zs.fingerprint())
            << zsys.to_string(z) << " of scheme " << scheme << "/" << ssi;
      }
    }
  }
}

}  // namespace
}  // namespace hypersub::core
