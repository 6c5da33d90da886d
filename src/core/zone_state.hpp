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

  /// Remove a subscription by owner identity; returns the removed entry.
  /// Shrinks the summary filter (recomputed exactly). Removing a covering
  /// representative promotes its coverees in quench order: each either
  /// re-quenches under a surviving representative or joins order_/SubIndex.
  std::optional<StoredSub> remove_subscription(const SubId& owner);

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
    return store_ ? store_->order.size() : 0;
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

  /// Exact recompute of the summary filter from current contents.
  /// Returns true if it changed. (Used after removals.)
  bool recompute_summary();

  /// The exact hull of current contents, freshly folded without touching
  /// the maintained summary (invariant audits).
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
  // `slots[i]` is the index slot of `order[i]`; `pos_of_slot` inverts it.
  struct SubStore {
    SubArena arena;                     // SoA storage of stored subs
    std::vector<SubArena::Ref> order;   // live representative refs,
                                        // insertion order (coverees live
                                        // only in arena + covers)
    std::vector<MigratedBucket> buckets;
    SubIndex index;
    bool indexed = false;
    std::vector<std::uint32_t> slots;
    std::vector<std::size_t> pos_of_slot;
    std::vector<std::uint32_t> cand;  // match()/find_coverer() scratch
    CoverSet covers;                  // quench bookkeeping (cover_ only)
    Point probe;                      // find_coverer() scratch point
  };

  SubStore& store();  // find-or-create
  /// The representatives have reached the threshold of an unbuilt index.
  bool index_due() const noexcept;
  void build_index();
  void drop_index();
  /// First representative (insertion order) whose full rect covers `full`;
  /// kNullRef if none. Index-accelerated when the index is live.
  SubArena::Ref find_coverer(SubStore& st, const HyperRect& full) const;
  /// Append a rep to order_ (+ SubIndex when live) without re-adding it to
  /// the arena — promotion of an already-stored coveree.
  void append_representative(SubStore& st, SubArena::Ref ref);
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
