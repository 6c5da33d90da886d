#pragma once
// Per-zone repository kept by a zone's surrogate node (paper §3.3).
//
// A surrogate node manages each hosted content zone as a virtual node. The
// zone's state holds:
//   * real subscriptions mapped to this zone by LPH,
//   * at most one surrogate-subscription piece registered by the parent
//     zone (the subdivision of the parent's summary filter that falls into
//     this zone),
//   * migrated-bucket pointers left behind by dynamic load balancing,
//   * the summary filter: minimal hyper-cuboid covering all of the above,
//   * the cache of the pieces last registered at each child zone.
//
// Geometry is in the owning subscheme's projected space; real
// subscriptions also carry their full-space hyper-cuboid so final matching
// is exact.
//
// Subscriptions live in an arena (core::SubArena): SoA interval pools
// behind stable 32-bit refs, so the per-event scan streams contiguous
// memory. `order_` keeps the refs in insertion order — match() emits
// subids in exactly that order, which is the behavior contract the
// old vector<StoredSub> layout established (tests/test_match_index.cpp).

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/hyperrect.hpp"
#include "common/wire.hpp"
#include "core/cover_set.hpp"
#include "core/sub_arena.hpp"
#include "core/sub_index.hpp"
#include "core/subid.hpp"
#include "lph/zone.hpp"
#include "pubsub/subscription.hpp"

namespace hypersub::core {

/// Globally unique address of a zone instance.
struct ZoneAddr {
  std::uint32_t scheme = 0;
  std::uint32_t subscheme = 0;
  lph::Zone zone;

  friend bool operator==(const ZoneAddr&, const ZoneAddr&) = default;
};

/// splitmix64 finalizer: full-avalanche mix of one 64-bit word.
inline std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Mixes all three fields through splitmix64. The previous hash xor'ed two
/// std::hash<uint64_t> values (identity on libstdc++), so sibling zones —
/// equal level, codes differing in low bits — collided structurally into
/// neighboring buckets and popular-prefix codes stacked up; see
/// tests/test_core.cpp ZoneAddrHashQuality for the measured max-bucket-load
/// difference.
struct ZoneAddrHash {
  std::size_t operator()(const ZoneAddr& a) const noexcept {
    std::uint64_t h = splitmix64(a.zone.code);
    h = splitmix64(h ^ ((std::uint64_t(a.scheme) << 32) |
                        std::uint64_t(a.subscheme)));
    h = splitmix64(h ^ std::uint64_t(std::uint32_t(a.zone.level)));
    return std::size_t(h);
  }
};

/// Pointer to subscriptions migrated away by load balancing.
struct MigratedBucket {
  HyperRect summary;  ///< projected-space hull of the migrated subs
  /// Deduplicated exact projected rects of the migrated subs. The hull
  /// alone over-covers (events in its dead corners would chase the pointer
  /// and match nothing at the acceptor); match() uses the hull as a fast
  /// reject and forwards only when one of these rects contains the point.
  std::vector<HyperRect> sub_rects;
  SubId pointer;      ///< kMigrated: acceptor node id + bucket token
};

/// Repository + summary filter of one content zone.
class ZoneState {
 public:
  /// Below this many stored subscriptions, match() linear-scans; at or
  /// above it, a SubIndex is built and maintained incrementally. The sweet
  /// spot: almost all zones in a distributed run hold a handful of subs
  /// (index overhead would dominate), while hot rendezvous zones grow into
  /// the thousands (scan dominates).
  static constexpr std::size_t kDefaultIndexThreshold = 64;

  explicit ZoneState(ZoneAddr addr,
                     std::size_t index_threshold = kDefaultIndexThreshold,
                     bool cover_aggregation = false)
      : addr_(addr),
        index_threshold_(index_threshold),
        cover_(cover_aggregation) {}

  const ZoneAddr& addr() const noexcept { return addr_; }

  /// Re-tune the fallback threshold. Lowering it below the current sub
  /// count builds the index; raising it above drops the index (forcing the
  /// linear scan — the parity tests' lever).
  void set_index_threshold(std::size_t threshold);
  std::size_t index_threshold() const noexcept { return index_threshold_; }

  /// True while match() runs through the subscription index.
  bool index_active() const noexcept { return store_ && store_->indexed; }

  /// Register a real subscription. Returns true if the summary filter grew.
  /// Under cover aggregation, a subscription whose full-space rect is
  /// contained in an already-registered one's is quenched: stored in the
  /// arena against the first covering representative (insertion order) but
  /// kept out of order_/SubIndex — it can never grow the summary, so the
  /// return is always false for quenched installs.
  bool add_subscription(StoredSub s);

  /// Batch form of add_subscription: stores `s` but leaves building the
  /// index to the caller (a live index is still kept up to date). Once the
  /// batch is in, build_index_if_due() builds it in one pass over the
  /// final population, the same index the one-by-one path would hold.
  bool stage_subscription(StoredSub s);
  /// Returns true if it built the index.
  bool build_index_if_due() {
    if (!index_due()) return false;
    build_index();
    return true;
  }

  /// What remove_subscription() did.
  struct Removal {
    bool removed = false;          ///< a subscription of that owner was here
    bool summary_changed = false;  ///< the summary filter's value changed
  };

  /// Remove a subscription by owner identity. `range` is its full-space
  /// range as installed: an indexed zone looks only at the representatives
  /// its index holds at the range's lo corner (the subscription's own and
  /// any coverer's). Shrinks the summary filter exactly. Removing a
  /// covering representative promotes its coverees in quench order: each
  /// either re-quenches under a surviving representative or joins
  /// order_/SubIndex.
  Removal remove_subscription(const SubId& owner, const HyperRect& range);

  /// Install/refresh the surrogate piece from the parent zone. Returns true
  /// if the summary filter grew.
  bool set_parent_piece(HyperRect rect, Id parent_key);

  /// Record a migrated bucket pointer (kept by the migration origin).
  void add_migrated_bucket(MigratedBucket b);

  /// Remove and return the stored subscriptions (representatives and
  /// quenched coverees alike) whose subscriber node id lies in the
  /// clockwise ring arc [lo, hi). Used by migration. Coverees orphaned by
  /// a leaving representative are re-homed (re-quenched or promoted), and
  /// the summary filter is recomputed exactly — it used to be left
  /// unshrunk, which kept attracting events that matched nothing here for
  /// the rest of the run. Callers owning a changed summary must propagate
  /// the shrink (LoadBalancer::migrate does, like unsubscribe).
  std::vector<StoredSub> extract_subscribers_in_arc(Id lo, Id hi);

  /// Event matching for this zone (Alg. 5's event_match): appends the
  /// subids of matching real subscriptions, the parent piece if the
  /// projected point falls inside it, and any matching migrated buckets.
  void match(const Point& full, const Point& projected,
             std::vector<SubId>& out) const;

  /// Summary filter (projected space); empty() when nothing registered.
  const HyperRect& summary() const noexcept { return summary_; }

  /// Piece last pushed to child `digit`; empty() if none yet.
  const HyperRect& child_piece(int digit) const;
  void set_child_piece(int digit, HyperRect piece);

  /// Load contribution of this zone: stored entries of any kind.
  std::size_t entry_count() const noexcept {
    return subscription_count() + (parent_piece_ ? 1 : 0) +
           (store_ ? store_->buckets.size() : 0);
  }
  std::size_t subscription_count() const noexcept {
    // Arena size = representatives + quenched coverees: a quenched sub is
    // still stored (and migrated) here, so it still contributes load.
    return store_ ? store_->arena.size() : 0;
  }

  /// Cover-aggregation accounting: subscriptions registered upward (in
  /// order_/SubIndex), subscriptions quenched under a representative, and
  /// promotions performed when a representative left.
  std::size_t cover_representatives() const noexcept {
    return store_ ? representatives(*store_) : 0;
  }
  std::size_t cover_quenched() const noexcept {
    return store_ ? store_->covers.quenched_count() : 0;
  }
  std::uint64_t cover_promotions() const noexcept { return cover_promotions_; }
  bool cover_aggregation() const noexcept { return cover_; }

  /// Materialized copies of the stored subscriptions, in insertion order.
  /// Audit/test convenience — O(n) allocations; the arena is the storage.
  std::vector<StoredSub> subscriptions() const;

  const std::vector<MigratedBucket>& buckets() const noexcept;
  bool has_parent_piece() const noexcept { return parent_piece_.has_value(); }

  /// The installed surrogate piece and the parent zone key that registered
  /// it; nullopt if none (cross-node staleness audits).
  const std::optional<std::pair<HyperRect, Id>>& parent_piece() const noexcept {
    return parent_piece_;
  }

  /// Recompose the summary filter from its parts: the representatives'
  /// hull, the parent piece and the bucket hulls. O(d) per part unless a
  /// removal left a bound of the representatives' hull with no
  /// representative at it, which refolds that hull once. Returns true if
  /// the summary's value changed.
  bool recompute_summary();

  /// The exact hull of current contents, folded afresh over every
  /// representative without touching the maintained summary (invariant
  /// audits and tests; O(zone)). Bounds order -0.0 below +0.0, so the
  /// hull's bits do not depend on the order of its parts.
  HyperRect exact_summary() const;

  /// True if a subscription with this owner identity is stored here
  /// (representative or quenched coveree).
  bool has_subscription(const SubId& owner) const;

  // -- state transfer / checkpointing ---------------------------------------

  /// Serialize the complete repository: representatives in insertion order
  /// (each with its coverees in quench order), migrated buckets, parent
  /// piece, child-piece cache, summary, index flag, promotion counter. The
  /// address is NOT included — the receiving side keys zones externally.
  void save(common::ByteWriter& w) const;

  /// Rebuild from save()'s encoding into a freshly-constructed ZoneState
  /// (same addr / threshold / cover flags). Structure-exact: insertion
  /// order, quench relations, and the indexed flag are reproduced verbatim
  /// — not re-derived — so match() emission order is identical to the
  /// source zone's.
  void restore(common::ByteReader& r);

  /// Order-insensitive semantic digest: the stored subscription set, the
  /// parent piece, buckets, non-empty child pieces, and the summary. Two
  /// zones with the same digest deliver the same events; insertion order,
  /// quench assignment, and index state are deliberately excluded (a
  /// protocol-built zone permutes them relative to an oracle-built one).
  std::uint64_t fingerprint() const;
  /// fingerprint() of a zone that stores nothing but `piece` from
  /// `parent_key`, with child_pieces[d] cached for each digit d (empty
  /// ones uncached), computed without building the zone.
  static std::uint64_t piece_only_fingerprint(
      const HyperRect& piece, Id parent_key,
      std::span<const HyperRect> child_pieces);

  /// Estimated heap bytes of the structural (zone-tree) part: summary,
  /// parent piece, and the child-piece cache. Excludes the SubStore and
  /// sizeof(ZoneState) itself (the caller owns the map entry).
  std::size_t structural_bytes() const noexcept;

  /// Estimated heap bytes of subscription storage: the boxed SubStore with
  /// its arena pools, ordering/index bookkeeping, and migrated buckets.
  std::size_t store_bytes() const noexcept;

 private:
  // Subscription storage + matching index, boxed behind one pointer and
  // allocated on first use. The vast majority of zones in a large run are
  // structural: they exist only to carry a summary piece down the tree and
  // never store a subscription or bucket. Keeping the arena/index
  // machinery out-of-line cuts the per-zone footprint of those piece-only
  // zones to the address, the piece, the summary and the child-piece
  // cache — the dominant RSS term at saturation scale.
  //
  // `order` lists the representatives in insertion order. A removal
  // leaves a hole (kNullRef) in place, and the holes are squeezed out in
  // one pass once they fill half of it, so a removal costs O(1) amortized.
  // `slots[i]` is the index slot of `order[i]`; `pos_of_slot` inverts it.
  //
  // `hull` is the hull of the representatives' projections, and per
  // dimension the number of representatives whose bound has the hull's
  // bits (its support). Adding a representative widens the hull or raises
  // a support; removing one lowers the supports it held. Only a support
  // that reaches zero sends the hull back to a fold over the
  // representatives, so the summary follows installs, removals and pieces
  // in O(d).
  struct Bound {
    Interval iv;
    std::uint32_t lo_support = 0;
    std::uint32_t hi_support = 0;
  };
  struct SubStore {
    SubArena arena;                     // SoA storage of stored subs
    std::vector<SubArena::Ref> order;   // representative refs and holes,
                                        // insertion order (coverees live
                                        // only in arena + covers)
    std::size_t holes = 0;              // kNullRef entries in order
    std::vector<Bound> hull;            // empty() == no representative
    std::vector<MigratedBucket> buckets;
    SubIndex index;
    bool indexed = false;
    std::vector<std::uint32_t> slots;
    std::vector<std::size_t> pos_of_slot;
    std::vector<std::uint32_t> cand;  // index probe scratch (positions)
    CoverSet covers;                  // quench bookkeeping (cover_ only)
    Point probe;                      // probe_corner() scratch point
  };

  static std::size_t representatives(const SubStore& st) noexcept {
    return st.order.size() - st.holes;
  }

  SubStore& store();  // find-or-create
  /// The representatives have reached the threshold of an unbuilt index.
  bool index_due() const noexcept;
  void build_index();
  void drop_index();
  /// Squeeze the holes out of `order` (and `slots`).
  void compact(SubStore& st);
  /// Fill st.cand with the ascending positions of the representatives
  /// whose index cells hold `p` (a superset of those containing it).
  /// Indexed zones only.
  void probe_index(SubStore& st, const Point& p) const;
  /// probe_index at the lo corner of `full`, which every range covering
  /// `full` contains.
  void probe_corner(SubStore& st, std::span<const Interval> full) const;
  /// First representative (insertion order) whose full rect covers `full`;
  /// kNullRef if none. Index-accelerated when the index is live.
  SubArena::Ref find_coverer(SubStore& st, const HyperRect& full) const;
  /// Append a stored ref to order (+ SubIndex when live, under its full
  /// range `full`) and to the representatives' hull.
  void push_representative(SubStore& st, SubArena::Ref ref,
                           const HyperRect& full);
  /// Append a rep without re-adding it to the arena — promotion of an
  /// already-stored coveree.
  void append_representative(SubStore& st, SubArena::Ref ref);
  /// Remove the representative at `pos`, re-home its coverees and shrink
  /// the summary; true if the summary's value changed.
  bool remove_representative(SubStore& st, std::size_t pos);
  /// Representatives' hull upkeep: add or drop one projection's bounds,
  /// and refold the hull if a bound lost its last supporter.
  static void hull_add(SubStore& st, std::span<const Interval> projected);
  static void hull_remove(SubStore& st, std::span<const Interval> projected);
  static void settle_hull(SubStore& st);
  /// Widen the summary in place by `r`; true if its value grew.
  bool widen_summary(const HyperRect& r);
  /// Re-home a coveree whose representative left: re-quench under the
  /// first surviving coverer or promote to representative.
  void rehome_coveree(SubStore& st, SubArena::Ref ref);

  ZoneAddr addr_;
  std::unique_ptr<SubStore> store_;  // null until a sub/bucket arrives
  std::optional<std::pair<HyperRect, Id>> parent_piece_;  // rect, parent key
  HyperRect summary_;  // empty() == no content
  std::vector<HyperRect> child_pieces_;  // lazily sized to the zone base
  std::size_t index_threshold_;
  bool cover_ = false;  // covering-based quench at registration
  std::uint64_t cover_promotions_ = 0;
};

}  // namespace hypersub::core
