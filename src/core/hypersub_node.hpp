#pragma once
// Per-node HyperSub state: the subscriber-side repository, the hosted zone
// repositories (virtual nodes), and migrated-in buckets accepted from
// overloaded peers.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/wire.hpp"
#include "core/flat_map.hpp"
#include "core/subscheme.hpp"
#include "core/zone_state.hpp"
#include "net/topology.hpp"

namespace hypersub::core {

/// Subscriptions accepted from an overloaded peer, keyed by bucket token.
/// Large buckets carry a matching index (index slots == arena refs == the
/// dense 0..n-1 acceptance order; the repo is append-never after
/// acceptance, so no slot bookkeeping).
struct MigratedRepo {
  Id origin_zone_key = 0;  ///< zone the subs were extracted from
  SubArena subs;           ///< full entries (SoA), exact matching
  SubIndex index;          ///< over subs' full-space ranges
  bool indexed = false;

  /// Index every sub, slot = ref (acceptance order), in one pass.
  void build_index();

  /// Append the owners of the subs matching `p` (exact), in acceptance
  /// order.
  void match(const Point& p, std::vector<SubId>& out,
             std::vector<std::uint32_t>& scratch) const;
};

/// Attributable memory estimate of a node's pub/sub state, split so the
/// zone-tree representation is separable from subscription storage. All
/// numbers are allocator-level estimates (capacities, not sizes; map
/// overhead approximated). The chain_* / implicit_zones names predate the
/// saturated-zone runs; benchmark tooling reads them under these names.
struct ZoneMemoryBreakdown {
  std::size_t materialized_zones = 0;  ///< ZoneState count
  std::size_t chain_records = 0;       ///< saturated zones
  std::size_t implicit_zones = 0;      ///< saturated zones
  std::size_t zone_bytes = 0;       ///< ZoneState structs + structural heap
  std::size_t chain_bytes = 0;      ///< saturated-zone runs
  std::size_t key_index_bytes = 0;  ///< by_key_ maps + addr vectors
  std::size_t sub_bytes = 0;  ///< SubStores + local store + migrated repos

  std::size_t zone_tree_bytes() const noexcept {
    return zone_bytes + chain_bytes + key_index_bytes;
  }
};

/// One set of hosted zones. A node keeps two: the zones it owns (primary)
/// and the copies it holds for the nodes it would inherit from (replicas).
/// Both follow one rule: a saturated zone — one that stores nothing but its
/// parent piece, and that piece is exactly its own extent — is a code in a
/// run; every other zone is a ZoneState.
///
/// Everything else about a saturated zone (summary, child-piece cache,
/// parent key) follows from its address, so per (scheme, subscheme) one
/// vector of code runs [lo, hi), level by level, holds them. A
/// level-L key is the code padded with one-bits, plus the rotation, so
/// keys rise with codes and the level-L zones of one host's ring arc are
/// one code interval (two where the arc wraps): a saturated tree costs a
/// few runs per host and level, plus one split per ZoneState inside it.
class ZoneStore {
 public:
  using ZoneMap = std::unordered_map<ZoneAddr, ZoneState, ZoneAddrHash>;

  /// `schemes` gives each (scheme, subscheme)'s code layout — base,
  /// depth and rotation — to decode keys against; it must outlive the
  /// store and hold every scheme whose zones the store is handed.
  ZoneStore(const SchemeTable& schemes, std::size_t index_threshold,
            bool cover)
      : schemes_(&schemes),
        index_threshold_(index_threshold),
        cover_(cover) {}

  /// Find-or-create the state of a zone; indexes its rotated key for
  /// kRendezvous/kZone dispatch.
  ZoneState& zone_state(const ZoneAddr& addr, Id rotated_key);

  /// Drop a zone and its key-index entry. No-op if it is not stored here.
  void erase_zone(const ZoneAddr& addr, Id rotated_key);

  /// Zone dispatch by rotated key, allocation-free for the delivery hot
  /// path: appends every zone indexed under the key to a caller-held
  /// scratch vector. NOTE: a zone key aliases the keys of its rightmost
  /// descendants (right-padding with β-1 digits), so one key can
  /// legitimately address a whole leaf-to-ancestor chain of zones — all
  /// hosted by the same surrogate node.
  void append_zones_by_key(Id rotated_key, std::vector<ZoneState*>& out);

  /// All stored ZoneStates (iteration order unspecified).
  ZoneMap& zones() { return zones_; }
  const ZoneMap& zones() const { return zones_; }

  /// Whether the zone is saturated here.
  bool saturated(const ZoneAddr& addr) const;
  /// Saturate the zone; returns true if it was not saturated.
  bool set_saturated(const ZoneAddr& addr);
  /// Saturate the level-`level` zones of (scheme, subscheme) with codes in
  /// [lo, hi), merging with the neighbouring runs. Calls on_clear(a, b)
  /// for each sub-range [a, b) that was not saturated before, in code
  /// order, and returns the number of zones those hold. on_clear must not
  /// touch this store.
  template <typename F>
  std::uint64_t set_saturated_run(std::uint32_t scheme,
                                  std::uint32_t subscheme, int level, Id lo,
                                  Id hi, F&& on_clear);
  /// Unsaturate the zone, splitting its run; returns true if it was
  /// saturated.
  bool clear_saturated(const ZoneAddr& addr);
  /// Visit fn(scheme, subscheme, mask) for every subscheme with saturated
  /// zones under `key`, in (scheme, subscheme) order. Bit L of `mask` is
  /// the level-L zone whose key is `key` (Subscheme::zone_at): one key
  /// aliases a zone and its rightmost descendants, so each level whose
  /// code padding `key` carries is looked up in the runs.
  template <typename F>
  void for_each_saturated_at(Id key, F&& fn) const {
    for (const SaturatedZones& s : saturated_) {
      if (const std::uint64_t mask = mask_at(s, key); mask != 0) {
        fn(s.scheme, s.subscheme, mask);
      }
    }
  }
  /// Visit fn(addr, rotated key) for every saturated zone, in (scheme,
  /// subscheme, level, code) order.
  template <typename F>
  void for_each_saturated(F&& fn) const {
    for (const SaturatedZones& s : saturated_) {
      for (int level = 1; level <= s.max_level; ++level) {
        for (const Run& r : level_runs(s, level)) {
          for (Id code = r.lo; code < r.hi; ++code) {
            fn(ZoneAddr{s.scheme, s.subscheme, lph::Zone{code, level}},
               key_at(s, level, code));
          }
        }
      }
    }
  }
  /// Number of saturated zones (the runs' total length).
  std::size_t saturated_count() const noexcept { return saturated_count_; }

  /// Write the ZoneStates by ascending key; each key's address vector
  /// keeps its live order — append_zones_by_key order feeds match
  /// emission, so it is part of the behavior contract.
  void save_zones(common::ByteWriter& w) const;
  void restore_zones(common::ByteReader& r);
  /// Write the saturated zones whose key satisfies `keep` as a row count
  /// and sorted (scheme, subscheme, key, mask) rows — one per key, bit L
  /// of the mask for its level-L zone, the rows a per-key level-mask store
  /// writes; returns the zones written.
  template <typename Keep>
  std::size_t save_saturated(common::ByteWriter& w, Keep&& keep) const {
    std::vector<Row> rows;
    std::size_t zones = 0;
    for (const SaturatedZones& s : saturated_) {
      const std::size_t first = rows.size();
      for (int level = 1; level <= s.max_level; ++level) {
        for (const Run& r : level_runs(s, level)) {
          for (Id code = r.lo; code < r.hi; ++code) {
            const Id key = key_at(s, level, code);
            if (!keep(key)) continue;
            rows.push_back(Row{s.scheme, s.subscheme, key,
                               std::uint64_t{1} << level});
            ++zones;
          }
        }
      }
      merge_rows(rows, first);
    }
    w.u32(std::uint32_t(rows.size()));
    for (const Row& row : rows) {
      w.u32(row.scheme);
      w.u32(row.subscheme);
      w.u64(row.key);
      w.u64(row.mask);
    }
    return zones;
  }
  /// Read save_saturated()'s rows into a store that has no saturated
  /// zones yet.
  void restore_saturated(common::ByteReader& r);

  /// Add this store's zone-tree and subscription bytes to `b`.
  void tally(ZoneMemoryBreakdown& b) const;
  void clear();

 private:
  /// Saturated codes [lo, hi) of one level.
  struct Run {
    Id lo = 0;
    Id hi = 0;
  };
  struct SaturatedZones {
    std::uint32_t scheme = 0;
    std::uint32_t subscheme = 0;
    int base_bits = 1;
    int max_level = 0;
    Id rotation = 0;
    // Level by level, each level's runs by lo: disjoint, never adjacent.
    std::vector<Run> runs;
    // Level L's runs are runs[level_start[L], level_start[L + 1]).
    std::vector<std::uint32_t> level_start;
  };
  struct Row {
    std::uint32_t scheme;
    std::uint32_t subscheme;
    Id key;
    std::uint64_t mask;
  };

  /// Rotated key of a level-`level` code (lph::zone_key's arithmetic).
  static Id key_at(const SaturatedZones& s, int level, Id code) noexcept {
    const int pad = kIdBits - level * s.base_bits;  // level >= 1
    return ((code << pad) | ((Id{1} << pad) - 1)) + s.rotation;
  }
  /// The level mask of `s` under `key`.
  static std::uint64_t mask_at(const SaturatedZones& s, Id key) noexcept;
  /// Sort rows[first..] by key and fold rows of one key into one mask.
  static void merge_rows(std::vector<Row>& rows, std::size_t first);
  /// The runs of (scheme, subscheme); null if it has none.
  const SaturatedZones* find_runs(std::uint32_t scheme,
                                  std::uint32_t subscheme) const;
  /// The runs of (scheme, subscheme), created empty if absent.
  SaturatedZones& runs_of(std::uint32_t scheme, std::uint32_t subscheme);
  /// The runs of one level.
  static std::span<const Run> level_runs(const SaturatedZones& s,
                                         int level) noexcept {
    return std::span<const Run>(s.runs).subspan(
        s.level_start[std::size_t(level)],
        s.level_start[std::size_t(level) + 1] -
            s.level_start[std::size_t(level)]);
  }
  /// The first run of `level` that ends at or after `code`.
  static std::vector<Run>::iterator first_touching(SaturatedZones& s,
                                                   int level, Id code);
  /// Shift the starts of the levels above `level` by `delta` runs.
  static void shift_levels_above(SaturatedZones& s, int level, int delta);

  const SchemeTable* schemes_;
  std::size_t index_threshold_;
  bool cover_;  // forwarded into every ZoneState
  ZoneMap zones_;
  // The key index is an open-addressing flat map: at saturation scale the
  // node-based unordered_map paid one allocation plus bucket/next pointers
  // per entry on top of the address vector payload.
  FlatMap<Id, std::vector<ZoneAddr>> by_key_;
  std::vector<SaturatedZones> saturated_;  // sorted by (scheme, subscheme)
  std::size_t saturated_count_ = 0;
};

template <typename F>
std::uint64_t ZoneStore::set_saturated_run(std::uint32_t scheme,
                                           std::uint32_t subscheme, int level,
                                           Id lo, Id hi, F&& on_clear) {
  if (lo >= hi) return 0;
  SaturatedZones& s = runs_of(scheme, subscheme);
  // The runs that overlap or touch [lo, hi) become one; the gaps between
  // them are what this call saturates.
  const auto first = first_touching(s, level, lo);
  const auto end =
      s.runs.begin() + std::ptrdiff_t(s.level_start[std::size_t(level) + 1]);
  auto last = first;
  Id from = lo;
  std::uint64_t added = 0;
  for (; last != end && last->lo <= hi; ++last) {
    if (from < last->lo) {
      on_clear(from, last->lo);
      added += last->lo - from;
    }
    from = std::max(from, last->hi);
  }
  if (from < hi) {
    on_clear(from, hi);
    added += hi - from;
  }
  if (first == last) {
    s.runs.insert(first, Run{lo, hi});
    shift_levels_above(s, level, 1);
  } else {
    first->lo = std::min(first->lo, lo);
    first->hi = std::max(std::prev(last)->hi, hi);
    shift_levels_above(s, level, -int(last - std::next(first)));
    s.runs.erase(std::next(first), last);
  }
  saturated_count_ += std::size_t(added);
  return added;
}

/// All pub/sub state hosted by one simulated node.
class HyperSubNode {
 public:
  /// `schemes` decodes the zone stores' keys (see ZoneStore).
  HyperSubNode(net::HostIndex host, Id node_id, const SchemeTable& schemes,
               std::size_t index_threshold = ZoneState::kDefaultIndexThreshold,
               bool cover_aggregation = false)
      : host_(host),
        node_id_(node_id),
        index_threshold_(index_threshold),
        primary_(schemes, index_threshold, cover_aggregation),
        replicas_(schemes, index_threshold, cover_aggregation) {}

  net::HostIndex host() const noexcept { return host_; }
  Id node_id() const noexcept { return node_id_; }

  // -- subscriber side -----------------------------------------------------

  /// Allocate the next internal id for a subscription owned by this node.
  /// Iids are dense (1..n), which is what lets the subscriber-side store
  /// index by iid instead of hashing.
  std::uint32_t next_iid() { return ++iid_counter_; }
  void record_local(std::uint32_t iid, const pubsub::Subscription& sub);
  bool erase_local(std::uint32_t iid);

  /// The full-space range recorded for `iid`; nullopt if unknown or
  /// erased. Materializes a copy — the unsubscribe path only.
  std::optional<pubsub::Subscription> local_sub(std::uint32_t iid) const;
  std::size_t local_sub_count() const noexcept { return local_live_; }

  // -- surrogate side (hosted zones) ----------------------------------------

  /// The zones this node owns.
  ZoneStore& primary() noexcept { return primary_; }
  const ZoneStore& primary() const noexcept { return primary_; }
  /// Replica copies of zones whose primary lives elsewhere (robustness
  /// extension). They are matched only after the primary's failure
  /// promotes this node to owner of their keys.
  ZoneStore& replicas() noexcept { return replicas_; }
  const ZoneStore& replicas() const noexcept { return replicas_; }

  /// The primary ZoneStates (iteration order unspecified).
  ZoneStore::ZoneMap& zones() { return primary_.zones(); }
  const ZoneStore::ZoneMap& zones() const { return primary_.zones(); }

  // -- migrated-in buckets ---------------------------------------------------

  /// Accept a migration: returns the bucket token.
  std::uint32_t accept_migration(Id origin_zone_key,
                                 std::vector<StoredSub> subs);
  const MigratedRepo* find_migrated(std::uint32_t token) const;
  const std::unordered_map<std::uint32_t, MigratedRepo>& migrated_in() const {
    return migrated_in_;
  }

  // -- load ------------------------------------------------------------------

  /// The paper's load metric (§4: "load on node is measured as the number
  /// of subscriptions stored on the node"): subscriptions stored in primary
  /// zones, migrated-bucket pointers, and migrated-in subscriptions.
  /// Structural summary-filter pieces are NOT included — they are not
  /// migratable, and Fig. 4 (migration halves the max load) is only
  /// consistent with the subscription-count reading.
  std::size_t load() const;

  /// Piece-inclusive storage footprint: everything in load() plus the
  /// summary-filter pieces registered into primary zones. A saturated zone
  /// counts its one piece entry, so the footprint is independent of
  /// whether a zone is materialized or saturated.
  std::size_t stored_entries() const;

  /// Memory of both stores, the subscriber-side store and the migrated-in
  /// buckets.
  using ZoneMemoryBreakdown = core::ZoneMemoryBreakdown;
  ZoneMemoryBreakdown memory_breakdown() const;

  // -- state transfer / checkpointing ---------------------------------------

  /// Serialize everything this node hosts at the current wire version:
  /// subscriber-side store, the primary and replica ZoneStates (keyed,
  /// preserving per-key registration order), the primary and replica
  /// saturated zones as per-key mask rows, migrated-in buckets, and the
  /// id/token counters.
  /// Map iteration is by sorted key, so the bytes are deterministic.
  void save(common::ByteWriter& w) const;

  /// Rebuild from save()'s encoding; replaces all current state.
  void restore(common::ByteReader& r);

  /// Drop all surrogate-side state (both zone stores, migrated-in buckets)
  /// ahead of a protocol rejoin: the node re-acquires zone state through
  /// transfer. Subscriber-side entries and the iid counter are kept — this
  /// node's own subscriptions stay installed in the system.
  void reset_surrogate_state();

 private:
  // Subscriber-side SoA store: entry iid-1 holds the range's offset into
  // one shared interval pool (iids are dense, so no hashing); erase marks
  // the entry dead and leaves the pool space behind (unsubscribe churn is
  // negligible next to the per-map-node overhead this replaces).
  struct LocalEntry {
    std::uint32_t off = 0;
    std::uint16_t dims = 0;
    bool live = false;
  };

  net::HostIndex host_;
  Id node_id_;
  std::size_t index_threshold_;
  std::uint32_t iid_counter_ = 0;
  std::uint32_t token_counter_ = 0;
  std::vector<LocalEntry> local_entries_;  // index = iid - 1
  std::vector<Interval> local_pool_;
  std::size_t local_live_ = 0;
  ZoneStore primary_;
  ZoneStore replicas_;
  std::unordered_map<std::uint32_t, MigratedRepo> migrated_in_;
};

}  // namespace hypersub::core
