#pragma once
// HyperSubSystem: the distributed pub/sub service itself.
//
// Wires the HyperSub protocol (paper Algorithms 2-5) onto a ChordNet:
//   subscribe()  — Alg. 2 + Alg. 3 (installation + summary-filter pieces)
//   publish()    — Alg. 4 (LPH rendezvous per subscheme)
//   event messages — Alg. 5 (match + split across DHT links, recursively)
// plus the §4 load-balancing hooks (rotation is in the subscheme layer;
// dynamic migration is driven by LoadBalancer) and the publish fast lane:
// per-node rendezvous route caching (RouteCache) and per-next-hop event
// batching, both off by default = the paper's behavior.
//
// The system also owns experiment observability: per-event cost trackers,
// the pluggable delivery sink, and per-node loads.
//
// The definitions are split by concern: hypersub_install.cpp (Alg. 2-3 and
// the zone-write path), hypersub_saturated.cpp, hypersub_delivery.cpp (Alg.
// 4-5; the event path stays in this one translation unit),
// hypersub_invariants.cpp, hypersub_lifecycle.cpp and
// hypersub_checkpoint.cpp; hypersub_system.cpp constructs the system.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "overlay/overlay.hpp"
#include "core/delivery_sink.hpp"
#include "core/hypersub_node.hpp"
#include "core/route_cache.hpp"
#include "core/subscheme.hpp"
#include "metrics/event_metrics.hpp"
#include "metrics/fastlane_metrics.hpp"
#include "metrics/reliability_metrics.hpp"
#include "net/reliable_channel.hpp"
#include "pubsub/event.hpp"
#include "trace/tracer.hpp"

namespace hypersub::core {

class LoadBalancer;

/// How the overlay acquires its routing state when the system is built.
enum class BootstrapMode {
  /// The overlay starts as constructed; nodes enter via join_node() (or
  /// the caller drives the substrate directly). Protocol-faithful path.
  kNone,
  /// One-shot oracle build (Overlay::build): every node's routing state is
  /// computed from global knowledge — the "after stabilization" setup for
  /// large experiments, equivalent to a fully converged join sequence.
  kOracle,
};

/// Identifies one installed subscription: returned by subscribe(),
/// consumed by unsubscribe(). Callers no longer need to retain (and
/// re-pass bit-identically) the Subscription itself — the subscriber node
/// keeps the authoritative copy, and the handle is the key to it.
struct SubscriptionHandle {
  std::uint32_t scheme = 0;
  std::uint32_t iid = 0;
  net::HostIndex subscriber = overlay::Peer::kInvalidHost;

  bool valid() const noexcept {
    return subscriber != overlay::Peer::kInvalidHost;
  }
  friend bool operator==(const SubscriptionHandle&,
                         const SubscriptionHandle&) = default;
};

/// Fill a fresh ZoneState with the state the saturated zone `z` of `ss`
/// stands for: its extent as the piece from its parent, and the child
/// pieces that piece derives in the cache.
void seed_saturated(ZoneState& zs, const Subscheme& ss, const lph::Zone& z);
/// The fingerprint() of seed_saturated()'s ZoneState, computed without
/// building it.
std::uint64_t saturated_fingerprint(const Subscheme& ss, const lph::Zone& z);

class HyperSubSystem {
 public:
  struct Config {
    /// Robustness extension: replicate every zone registration to this
    /// many of the owner's would-be heirs (overlay replica_set). When the
    /// owner fails and the DHT repairs, the promoted node matches from its
    /// replicas, so subscriptions survive surrogate failures. 0 = paper
    /// behavior (state on dead nodes is lost).
    std::size_t replicas = 0;
    /// Zones (and migrated buckets) holding at least this many
    /// subscriptions match through a SubIndex instead of a linear scan;
    /// ~size_t(-1) disables indexing entirely (see ZoneState).
    std::size_t match_index_threshold = ZoneState::kDefaultIndexThreshold;
    /// Reliability extension: event-delivery messages (and load-balancer
    /// migrations) ride a ReliableChannel — acked, retried with backoff,
    /// and rerouted through backup hops when the next hop stays dead.
    /// Deliveries are deduplicated per (event, subscriber, subscription).
    /// Off by default = the paper's fire-and-forget behavior.
    bool reliable_delivery = false;
    /// Transport knobs of the reliable channel (ack deadline must exceed
    /// the topology's worst-case RTT).
    net::ReliableChannel::Config reliable;
    /// Publish fast lane, leg 1: every publisher keeps an LRU RouteCache
    /// of rendezvous zone key -> owner host and hands events straight to
    /// cached owners (one hop instead of a full greedy route). Misses and
    /// stale hits fall back to normal routing; the true owner corrects the
    /// publisher's cache on arrival. Off by default = paper behavior.
    /// Each cache holds RouteCache::kDefaultCapacity entries.
    bool route_cache = false;
    /// Publish fast lane, leg 2: event messages sharing (sender, next hop)
    /// within one simulator timestep coalesce into a single frame paying
    /// one packet header (cross-event extension of the paper's §3.3
    /// per-event aggregation). Off by default = paper behavior.
    bool batch_forwarding = false;
    /// Fraction of publishes/installs recorded when a tracer is attached
    /// (set_tracer). Sampling is a deterministic hash of the trace id, so
    /// the same seed + rate always keeps the same traces. Irrelevant (and
    /// costless) while no tracer is attached.
    double trace_sample_rate = 1.0;
    /// Fold per-event cost records into running sums instead of storing
    /// them (metrics::EventMetrics streaming mode) — O(1) metrics memory
    /// for million-event runs. CDF views come back empty; the snapshot
    /// means are unchanged. Survives reset_metrics().
    bool stream_event_metrics = false;
    /// Covering-based subscription aggregation (core::CoverSet): a
    /// subscription whose full-space rect is contained in one already
    /// registered at the same zone is quenched — stored locally under the
    /// covering representative, kept out of the SubIndex and upward piece
    /// propagation, and re-expanded (with an exact per-sub check) only at
    /// the matching node. In-flight subid lists are additionally sorted by
    /// target so same-subscriber runs collapse under the grouped wire
    /// encoding (subid_list_wire_bytes). Delivery sets are identical with
    /// the flag on or off. Off by default = paper behavior.
    bool cover_aggregation = false;
    /// Overlay bootstrap at construction (see BootstrapMode). kOracle runs
    /// Overlay::build(build_threads) in the constructor, before the
    /// ownership listener is installed — the initial table construction is
    /// setup, not a runtime ownership flip.
    BootstrapMode bootstrap = BootstrapMode::kNone;
    /// Worker threads for the oracle build (substrates that cannot shard
    /// ignore it).
    unsigned build_threads = 1;
    /// Interval of the old owner's handover tick during a live state
    /// transfer: the write-behind queue is shipped and the
    /// ownership-flip/commit condition re-checked this often.
    double handover_tick_ms = 5.0;
  };

  /// Hop TTL for event messages under reliable delivery. Reroutes can
  /// detour through nodes with stale routing state; the TTL bounds any
  /// livelock and converts it into a counted, truncated-flagged drop.
  static constexpr int kMaxEventHops = 128;
  /// Abort an unfinished transfer after this long (joiner death,
  /// stabilization never flipping ownership, snapshot source death). The
  /// old owner keeps its zones on abort; the joiner stops warming and
  /// serves with whatever arrived.
  static constexpr double kHandoverTimeoutMs = 10000.0;

  /// Build on any DHT substrate (Chord, Pastry, ...).
  explicit HyperSubSystem(overlay::Overlay& dht)
      : HyperSubSystem(dht, Config{}) {}
  HyperSubSystem(overlay::Overlay& dht, Config cfg);
  ~HyperSubSystem();

  HyperSubSystem(const HyperSubSystem&) = delete;
  HyperSubSystem& operator=(const HyperSubSystem&) = delete;

  overlay::Overlay& overlay() noexcept { return dht_; }
  net::Network& network() noexcept { return dht_.network(); }
  sim::Simulator& simulator() noexcept { return dht_.simulator(); }
  const Config& config() const noexcept { return cfg_; }

  // -- schemes ---------------------------------------------------------------

  /// Register a pub/sub scheme; returns its index. HyperSub supports any
  /// number of simultaneous schemes (§1).
  std::uint32_t add_scheme(pubsub::Scheme scheme, const SchemeOptions& opt);
  std::size_t scheme_count() const noexcept { return schemes_.size(); }
  const SchemeRuntime& scheme_runtime(std::uint32_t s) const {
    return *schemes_[s];
  }

  // -- subscriber/publisher API -----------------------------------------------

  /// Install a subscription for `subscriber` (Alg. 2). Asynchronous: the
  /// installation completes in simulated time. The returned handle is the
  /// key for unsubscribe().
  SubscriptionHandle subscribe(net::HostIndex subscriber,
                               std::uint32_t scheme,
                               pubsub::Subscription sub);

  /// Remove a previously installed subscription (extension; the paper
  /// leaves unsubscription unspecified). The stored subscription is looked
  /// up at the subscriber node; an unknown handle is a no-op.
  void unsubscribe(const SubscriptionHandle& handle);

  /// One entry of a bulk installation batch.
  struct BulkSub {
    net::HostIndex subscriber = 0;
    pubsub::Subscription sub;
  };

  /// Bulk (oracle) installation: installs `subs` directly into their
  /// owners' zone repositories — no simulated routing traffic, no per-sub
  /// install messages — then runs one deterministic top-down summary-piece
  /// fixpoint, reproducing the zone state a fully drained subscribe()
  /// cascade would reach (up to per-zone insertion order, which follows
  /// batch order here and message-arrival order there). This is the
  /// "after system stabilization" setup path for million-subscription
  /// runs. Returns handles in input order.
  ///
  /// `threads` shards the subscriber-side bookkeeping and the owner-side
  /// installs over disjoint host ranges; the result is independent of the
  /// thread count. Requires a substrate with global knowledge
  /// (Overlay::oracle_owner_table); substrates without it fall back to
  /// per-subscription routed installs, which the caller must drain with
  /// simulator().run() as usual.
  std::vector<SubscriptionHandle> bulk_subscribe(std::uint32_t scheme,
                                                 std::vector<BulkSub> subs,
                                                 unsigned threads = 1);

  /// What bulk_subscribe did, summed over its calls. The counts depend only
  /// on the inputs; the phase seconds are wall-clock and stay out of every
  /// hash and snapshot.
  struct BulkStats {
    /// Zones that pushed pieces down one by one: those with a ZoneState,
    /// and the saturated parents of a level whose splits round.
    std::uint64_t zones_cascaded = 0;
    /// Runs of saturated children written into primary stores, one per
    /// host arc a span's children cross; and the children whose split
    /// rounded past the parent's interval, so clip() computed their piece.
    std::uint64_t children_fast = 0;
    std::uint64_t children_clipped = 0;
    std::uint64_t indexes_built = 0;  ///< SubIndex builds by the installs
    double plan_s = 0.0;     ///< Phase A: subscriber bookkeeping, planning
    double install_s = 0.0;  ///< Phase B: zone installs and index builds
    double cascade_s = 0.0;  ///< Phase C: the summary-piece fixpoint
  };
  const BulkStats& bulk_stats() const noexcept { return bulk_stats_; }

  /// Publish an event (Alg. 4). Asynchronous; returns the event sequence
  /// number used in metrics and the delivery log. Each delivery goes to
  /// the delivery sink (set_delivery_sink) as it lands.
  std::uint64_t publish(net::HostIndex publisher, std::uint32_t scheme,
                        pubsub::Event event);

  // -- node lifecycle ----------------------------------------------------------
  // One surface for every way a node enters or exits the system. Oracle
  // builds are Config::bootstrap; everything at runtime goes through here.

  /// Counters of the join/leave state-transfer machinery.
  struct JoinStats {
    std::uint64_t joins_started = 0;
    std::uint64_t joins_committed = 0;   ///< handshake completed, state live
    std::uint64_t joins_aborted = 0;     ///< timeout / peer death mid-transfer
    std::uint64_t leaves_completed = 0;
    std::uint64_t zones_transferred = 0; ///< zone snapshots shipped
    std::uint64_t transfer_bytes = 0;    ///< snapshot + queued-op + re-seed frames
    std::uint64_t queued_ops_replayed = 0;  ///< write-behind ops applied at target
    std::uint64_t warm_ops_replayed = 0;    ///< full-path ops deferred at joiners
    std::uint64_t events_buffered = 0;      ///< event messages parked while warming
    double total_handoff_ms = 0.0;  ///< handover start -> commit, summed
                                    ///< over joins and graceful leaves
    double max_handoff_ms = 0.0;
  };

  /// Protocol join with live state transfer: revives `host` if dead, wipes
  /// its surrogate-side state (its own subscriptions stay installed),
  /// splices it into the overlay via `bootstrap`, then runs the
  /// snapshot-then-replay handshake against the current owner of the zone
  /// range it acquires. Until the handshake commits the joiner "warms":
  /// installs and owned events arriving at it are buffered and replayed
  /// after the transferred state lands. Asynchronous — drive the simulator
  /// to completion; join_stats() records the commit.
  void join_node(net::HostIndex host, net::HostIndex bootstrap);

  /// Graceful departure: pushes every hosted zone to the successor (same
  /// snapshot + write-behind machinery, inverted), bridges late installs,
  /// then splices out of the overlay and dies. Asynchronous.
  void leave_node(net::HostIndex host);

  /// Abrupt failure: the existing kill path (no state transfer; replicas
  /// and DHT repair are the only recovery).
  void crash_node(net::HostIndex host);

  const JoinStats& join_stats() const noexcept { return join_stats_; }
  /// True while any transfer session or warming joiner is outstanding.
  bool transfer_active() const noexcept;

  // -- whole-system checkpointing ---------------------------------------------

  /// Serialize all mutable pub/sub state: every node, route caches, event
  /// metrics, counters, the delivery sink rows, and dedup sets. Call only
  /// at quiescence (simulator drained, finalize_events() called, no
  /// transfer active); schemes are config, re-added by the caller before
  /// restore_state(). Composes with Network/Overlay/Tracer save_state into
  /// a full-run checkpoint (runner::checkpoint).
  void save_state(common::ByteWriter& w) const;
  void restore_state(common::ByteReader& r);

  // -- observability -----------------------------------------------------------

  /// Deliveries recorded by the built-in VectorDeliverySink (empty while a
  /// custom sink is installed).
  const std::vector<Delivery>& deliveries() const noexcept {
    return default_sink_.rows();
  }

  /// Route deliveries into `sink` instead of the built-in vector sink. The
  /// sink must outlive the system (or the next set_delivery_sink call).
  void set_delivery_sink(DeliverySink& sink) { sink_ = &sink; }
  /// Restore the built-in vector sink.
  void reset_delivery_sink() { sink_ = &default_sink_; }

  metrics::EventMetrics& event_metrics() noexcept { return event_metrics_; }
  const metrics::EventMetrics& event_metrics() const noexcept {
    return event_metrics_;
  }

  /// Transport + failover counters of the reliable delivery path (all zero
  /// unless config().reliable_delivery).
  metrics::ReliabilityCounters reliability_counters() const;
  net::ReliableChannel& reliable_channel() noexcept { return channel_; }

  /// Publisher-side route cache of host `h` (populated only when
  /// config().route_cache).
  RouteCache& route_cache(net::HostIndex h) { return *caches_[h]; }
  const RouteCache& route_cache(net::HostIndex h) const { return *caches_[h]; }
  /// System-wide sum of all per-node route-cache counters.
  metrics::RouteCacheCounters route_cache_counters() const;
  /// Frame-coalescing counters (all zero unless config().batch_forwarding).
  metrics::BatchCounters batch_counters() const noexcept { return batch_; }
  /// Covering-aggregation counters: representative/quenched gauges summed
  /// over live primary zones, plus promotion and wire-savings counters
  /// (all zero unless config().cover_aggregation).
  metrics::CoverCounters cover_counters() const;

  /// Attach (or detach, with nullptr) a span recorder. Wires the whole
  /// stack: the pub/sub core, the reliable event channel, and the DHT
  /// substrate all record into the same tracer, so one event's causal tree
  /// spans every layer. Config::trace_sample_rate decides which trees are
  /// kept. The tracer is not owned and must outlive the system (or be
  /// detached first).
  void set_tracer(trace::Tracer* t) {
    tracer_ = t;
    channel_.set_tracer(t);
    dht_.set_tracer(t);
  }
  /// The attached tracer (nullptr when detached or compiled out).
  trace::Tracer* tracer() const noexcept { return trace::maybe(tracer_); }

  /// Finalize, in seq order, the events whose message trees were cut short
  /// (e.g. by node failures); call after the simulation drains.
  void finalize_events();

  /// Clear event metrics, the delivery sink, and fast-lane counters (e.g.
  /// after warm-up). Cached routes stay warm; only their counters reset.
  void reset_metrics();

  /// Current per-node loads (paper's stored-subscription metric).
  std::vector<std::size_t> node_loads() const;

  /// Piece-inclusive per-node storage footprints (see
  /// HyperSubNode::stored_entries).
  std::vector<std::size_t> node_stored_entries() const;

  /// Live subscriptions in the whole system (for % matched).
  std::size_t total_subscriptions() const noexcept { return total_subs_; }

  HyperSubNode& node(net::HostIndex h) { return *nodes_[h]; }
  const HyperSubNode& node(net::HostIndex h) const { return *nodes_[h]; }

  /// Structural invariants over all hosted zone state; call only after the
  /// simulation has quiesced. Checks that every zone's summary filter is
  /// exactly the hull of its contents, that stored subscriptions project
  /// inside their zone's extent, and that cached child pieces equal
  /// summary ∩ child-extent. Returns false (and stops) on first violation.
  bool check_zone_invariants() const;

  /// Order-insensitive digest of the logical zone tree: every stored zone
  /// row — materialized, or saturated and folded in as the ZoneState it
  /// stands for — folds in as hash(scheme, subscheme, code, level,
  /// fingerprint). Husks (zones storing nothing: no subscriptions, no
  /// buckets, no parent piece) are skipped, so the digest does not depend
  /// on which form a zone is stored in.
  std::uint64_t zone_content_digest() const;

 private:
  friend class LoadBalancer;

  /// Where a subscheme's rendezvous probe was cache-directed (invalid host
  /// = it rode normal routing), so the consuming owner can correct the
  /// publisher's cache.
  struct RendezvousProbe {
    Id key = 0;
    net::HostIndex sent_to = overlay::Peer::kInvalidHost;
  };

  /// Per-event cost accounting (the §5.1 metrics of one event).
  struct Tracker {
    double publish_time = 0.0;
    std::size_t outstanding = 0;
    std::size_t matched = 0;
    int max_hops = 0;
    double max_latency = 0.0;
    std::uint64_t bytes = 0;
    std::uint64_t header_bytes = 0;
    bool truncated = false;  ///< part of the delivery tree was lost
    /// The record was emitted (finalized or force-finalized): the event's
    /// remaining messages still deliver, but stop accounting.
    bool done = false;
  };

  /// Per-event context shared by all messages of one event: the event,
  /// immutable once published, and its tracker, which the (sequential)
  /// event path updates in place.
  struct EventCtx {
    std::uint64_t seq;
    std::uint32_t scheme;
    net::HostIndex origin = overlay::Peer::kInvalidHost;
    pubsub::Event event;
    std::vector<Point> projected;          // per subscheme
    std::vector<RendezvousProbe> rendezvous;  // per subscheme
    trace::TraceId trace = trace::kNoTrace;  ///< kNoTrace = not sampled
    trace::SpanId root = trace::kNoSpan;     ///< the publish span
    mutable Tracker tracker;
  };
  using EventCtxPtr = std::shared_ptr<const EventCtx>;

  /// One logical event message riding (alone or batched) in a frame: this
  /// header followed, in the same heap block, by its `n` SubIds. The block
  /// is the message's only allocation and has a single owner — a ChunkPtr
  /// from make_chunk, then the Frame it travels in.
  struct FrameChunk {
    EventCtxPtr ctx;
    FrameChunk* next = nullptr;  ///< next chunk of the same frame
    int hops = 0;
    /// SubIds after the header; 0 once a reliable delivery consumed them.
    std::uint32_t n = 0;
    net::HostIndex failed = overlay::Peer::kInvalidHost;
    /// Forward span opened at the sender; closed on arrival (or at ack
    /// expiry), and the parent of everything the receiver records.
    trace::SpanId fwd_span = trace::kNoSpan;

    SubId* data() noexcept { return reinterpret_cast<SubId*>(this + 1); }
    std::span<const SubId> subids() const noexcept {
      return {reinterpret_cast<const SubId*>(this + 1), n};
    }
  };
  struct ChunkFree {
    void operator()(FrameChunk* c) const noexcept;
  };
  using ChunkPtr = std::unique_ptr<FrameChunk, ChunkFree>;

  /// One frame on the wire: a move-only owning list of chunks in arrival
  /// order. A lone chunk needs no list storage — the frame is two pointers.
  class Frame {
   public:
    Frame() = default;
    explicit Frame(ChunkPtr c) noexcept { push_back(std::move(c)); }
    Frame(Frame&& o) noexcept
        : head_(std::exchange(o.head_, nullptr)),
          tail_(std::exchange(o.tail_, nullptr)) {}
    Frame& operator=(Frame&& o) noexcept {
      if (this != &o) {
        clear();
        head_ = std::exchange(o.head_, nullptr);
        tail_ = std::exchange(o.tail_, nullptr);
      }
      return *this;
    }
    ~Frame() { clear(); }

    void push_back(ChunkPtr c) noexcept {
      FrameChunk* raw = c.release();
      (head_ ? tail_->next : head_) = raw;
      tail_ = raw;
    }
    bool empty() const noexcept { return head_ == nullptr; }
    std::size_t size() const noexcept {
      std::size_t k = 0;
      for (const FrameChunk* c = head_; c; c = c->next) ++k;
      return k;
    }

    struct Iter {
      FrameChunk* c;
      FrameChunk& operator*() const noexcept { return *c; }
      Iter& operator++() noexcept {
        c = c->next;
        return *this;
      }
      bool operator==(const Iter&) const = default;
    };
    Iter begin() const noexcept { return {head_}; }
    Iter end() const noexcept { return {nullptr}; }

   private:
    void clear() noexcept {
      while (head_) ChunkFree{}(std::exchange(head_, head_->next));
      tail_ = nullptr;
    }

    FrameChunk* head_ = nullptr;
    FrameChunk* tail_ = nullptr;
  };

  /// One pending subid with its resolved next hop. `pos` is its position
  /// in the unsorted list: the tie-break that keeps grouping stable.
  struct Routed {
    net::HostIndex host;
    SubId subid;
    std::uint32_t pos;
  };

  /// Arrival handler of one fire-and-forget event frame (send_frame). A
  /// named type so its size can be pinned: wrapped in net::Network::Delivery
  /// it must fit sim::Task's inline buffer, or every event message pays a
  /// heap allocation (tests/test_sim.cpp checks it). It owns its frame, so
  /// it is move-only.
  struct FrameDelivery {
    HyperSubSystem* sys;
    net::HostIndex to;
    Id sender;
    Frame frame;

    void operator()();
  };

 public:
  /// The action the scheduler stores for one event frame on the wire.
  using FrameDeliveryAction = net::Network::Delivery<FrameDelivery>;

 private:
  /// One zone write of Alg. 3: a subscription install (kAdd), a removal
  /// (kRemove) or a parent piece (kPiece) at the zone `addr` with rotated
  /// key `key`. Only the payload of its kind is set. Routed writes, the
  /// write-behind queue, the leave bridge, a warming joiner's deferred
  /// writes and replica copies all carry this one value.
  struct ZoneOp {
    enum class Kind : std::uint8_t { kAdd, kRemove, kPiece };
    Kind kind = Kind::kAdd;
    ZoneAddr addr;
    Id key = 0;
    /// kAdd: the subscription to store. kRemove: the subscription to
    /// remove, its owner and full-space range (no projection).
    StoredSub stored{};
    HyperRect piece{};   ///< kPiece: the parent's summary ∩ this extent
    Id parent_key = 0;   ///< kPiece: the registering parent's key
  };

  /// An owned event message parked at a warming joiner.
  struct ParkedEvent {
    EventCtxPtr ctx;
    std::vector<SubId> subids;
    int hops = 0;
    trace::SpanId via = trace::kNoSpan;
  };

  // -- live state transfer (join/leave tentpole) ------------------------------
  // One outbound session per old owner and one warm buffer per joiner;
  // handlers run where the transfer messages land.

  /// Outbound handover at the old owner: snapshot already shipped; every
  /// in-range write is applied locally AND queued for a zone-local replay
  /// at the target (write-behind) until the commit condition holds.
  struct TransferOut {
    bool active = false;
    bool leaving = false;    ///< leave push: no ownership watch, bridge after
    bool committed = false;  ///< leave only: snapshot shipped, bridging installs
    net::HostIndex target = overlay::Peer::kInvalidHost;
    Id target_id = 0;
    Id my_id = 0;
    std::uint64_t epoch = 0;  ///< guards stale tick timers
    double started_ms = 0.0;
    double deadline_ms = 0.0;
    std::vector<ZoneOp> queue;  ///< write-behind, replayed at the target

    /// Back to idle, keeping the epoch so stale timers still miss.
    void reset() {
      const std::uint64_t e = epoch;
      *this = TransferOut{};
      epoch = e;
    }
  };

  /// Warm buffer at a joiner: zone snapshots and write-behind batches stage
  /// here; full-path work (zone writes and owned events) defers here, in
  /// one queue so that it replays in arrival order.
  struct WarmState {
    bool warming = false;
    std::uint64_t epoch = 0;  ///< guards stale timeout timers
    double started_ms = 0.0;
    net::HostIndex source = overlay::Peer::kInvalidHost;
    std::vector<std::vector<std::uint8_t>> staged;  ///< snapshot frames
    std::vector<ZoneOp> transfer_ops;               ///< write-behind replays
    std::vector<std::variant<ZoneOp, ParkedEvent>> ops;  ///< deferred work

    /// Back to idle, keeping the epoch so stale timers still miss.
    void reset() {
      const std::uint64_t e = epoch;
      *this = WarmState{};
      epoch = e;
    }
  };

  void begin_state_transfer(net::HostIndex joiner);
  void handle_transfer_request(net::HostIndex owner, net::HostIndex joiner);
  /// Open `owner`'s outbound session to `target` (a joiner, or with
  /// `leaving` the successor of a graceful leave), ship the snapshot of the
  /// moved zones and start the handover ticks.
  void open_transfer(net::HostIndex owner, net::HostIndex target,
                     bool leaving);
  void schedule_handover_tick(net::HostIndex owner, std::uint64_t epoch);
  void handover_tick(net::HostIndex owner, std::uint64_t epoch);
  void commit_join_handover(net::HostIndex owner);
  void commit_leave_handover(net::HostIndex owner);
  void abort_transfer(net::HostIndex owner);
  /// Add one completed handover, begun at `started_ms`, to the handoff
  /// totals of join_stats_.
  void note_handoff(double started_ms);
  /// Apply everything a warming joiner staged and stop warming. Called by
  /// the commit frame (normal path) or the warm timeout (source died).
  void finish_warming(net::HostIndex joiner);
  /// True if `key` belongs to the target's post-flip range.
  static bool transfer_moves(const TransferOut& t, Id key);
  /// The rotated key of a hosted zone (pure function of its address).
  Id zone_key_of(const ZoneAddr& addr) const;
  /// The primary ZoneStates of `host`, and with `saturated` its saturated
  /// zones too, as (rotated key, address), sorted by key, then address.
  /// Map iteration order depends on insertion and rehash history; every
  /// path whose sends depend on zone order walks this instead.
  std::vector<std::pair<Id, ZoneAddr>> zones_in_order(
      net::HostIndex host, bool saturated = false) const;
  /// Serialize the owner's hosted zones whose key moves with the session,
  /// sorted by (key, addr) for deterministic bytes. Saturated zones ship
  /// after them as (scheme, subscheme, key, mask) rows. When
  /// `moved_entries` is non-null it receives the moved zone count,
  /// saturated zones included (the zones_transferred metric).
  std::vector<std::uint8_t> serialize_moved_zones(
      net::HostIndex owner, const TransferOut& t,
      std::uint32_t* moved_entries = nullptr) const;
  /// Install zones from a serialize_moved_zones() image as primary state at
  /// `host`, clearing the same zones from both of its stores first.
  void install_transferred_zones(net::HostIndex host, common::ByteReader& r);
  /// Push the owner's primary form of (addr, key) — a ZoneState image or a
  /// saturated zone — to its current heirs, replacing their replica copy
  /// (the post-handover replica chain). No-op if the owner stores nothing
  /// there.
  void reseed_replicas(net::HostIndex owner, const ZoneAddr& addr, Id key);

  void unsubscribe_impl(net::HostIndex subscriber, std::uint32_t scheme,
                        std::uint32_t iid, pubsub::Subscription sub);

  // -- saturated zones (ZoneStore's code runs) --------------------------------
  // A zone changes form through these helpers, in a primary and a replica
  // store alike (bulk_subscribe also saturates fresh zones directly, a
  // run at a time).

  /// `piece` is exactly the extent of the (non-root) zone at `addr`.
  bool saturates(const ZoneAddr& addr, const HyperRect& piece) const;
  /// Find-or-create the ZoneState of `addr` in `store`. A saturated zone
  /// is unsaturated and comes back as the ZoneState it stands for: its
  /// extent as the parent piece and the derived child pieces in the cache,
  /// so the next propagate resends nothing.
  ZoneState& materialize_saturated(ZoneStore& store, const ZoneAddr& addr,
                                   Id rotated_key);
  /// Ready `addr` in `store` for `piece`: materialize it if saturated.
  /// False when there is nothing to do — a saturated zone receiving its
  /// own extent, or an empty piece for a zone that stores nothing.
  bool take_piece(ZoneStore& store, const ZoneAddr& addr, Id rotated_key,
                  const HyperRect& piece);
  /// Fold a ZoneState that stores only a parent piece equal to its extent
  /// into the saturated runs; erase one that stores nothing at all.
  void fold_saturated(ZoneStore& store, const ZoneAddr& addr, Id rotated_key);

  // Alg. 3: zone writes at the surrogate node + piece propagation.

  /// The full path of a write arriving at `owner`: defer it while `owner`
  /// warms, forward it over the leave bridge once `owner` has shipped the
  /// zone's range, queue it for write-behind while a transfer of that range
  /// is open, and apply it.
  void write_zone(net::HostIndex owner, ZoneOp op);
  /// Apply `op` to `store` of `host`: materialize a saturated zone for an
  /// install, skip a removal from a zone that stores nothing, take a
  /// piece, and mutate the zone. With `cascade` (the owner's own write)
  /// the write is also copied to the replica stores of the owner's heirs,
  /// which apply it here without `cascade`, and a summary change
  /// propagates as child pieces; replays at a transfer target leave both
  /// out. Last, a zone left holding only its extent folds.
  void apply_zone_op(net::HostIndex host, ZoneStore& store, ZoneOp op,
                     bool cascade);
  /// Wire size of one zone write as a replica copy, a bridged write or a
  /// shipped write-behind op.
  std::uint64_t op_bytes(const ZoneOp& op) const;
  void propagate_pieces(net::HostIndex host, const ZoneAddr& addr);

  // Alg. 5: one event message arriving at `host`. `subids` is copied into
  // the reusable Scratch worklist, so the caller keeps ownership. `via` is
  // the span that carried the message here (the incoming forward span, or
  // the publish root for origin-local processing) — the parent of the
  // match span.
  void process_event_message(net::HostIndex host, const EventCtxPtr& ctx,
                             std::span<const SubId> subids, int hops,
                             trace::SpanId via = trace::kNoSpan);
  /// The event message for one next-hop group of a sorted Routed list,
  /// built in place in its single heap block (fwd_span is set on send).
  static ChunkPtr make_chunk(const EventCtxPtr& ctx, int hops,
                             net::HostIndex failed,
                             std::span<const Routed> group);
  /// Queue one grouped event message `host` -> `to`. Without batching it
  /// leaves immediately as its own frame; with batching it coalesces with
  /// every other chunk bound for the same hop this timestep. The chunk's
  /// `failed` is a failure-gossip hint for the receiver (invalid host =
  /// none). Assumes the tracker's outstanding count was already
  /// incremented for this message; byte accounting happens at frame-send
  /// time.
  void forward_event(net::HostIndex host, net::HostIndex to, ChunkPtr chunk,
                     trace::SpanId parent = trace::kNoSpan);
  /// Send one frame of chunks `host` -> `to` (fire-and-forget, or acked
  /// with per-chunk reroute-on-expiry under reliable delivery).
  void send_frame(net::HostIndex host, net::HostIndex to, Frame frame);
  /// A frame from the node `sender` arriving at `to`, either way it was
  /// sent: note the contact, close the forward spans and process each
  /// chunk, marking it consumed.
  void receive_frame(net::HostIndex to, Id sender, Frame& frame);
  /// Flush the batched chunks queued for (host, to), if any.
  void flush_batch(net::HostIndex host, net::HostIndex to);
  /// Failover: re-resolve each subid of a message whose next hop died,
  /// excluding the dead hop, and forward the regrouped remainder. Subids
  /// with no viable alternative are dropped (counted, event truncated).
  void reroute_event(net::HostIndex host, const EventCtxPtr& ctx,
                     std::span<const SubId> subids, int hops,
                     net::HostIndex failed,
                     trace::SpanId parent = trace::kNoSpan);
  /// Cache coherence at the rendezvous: `host` consumed the kRendezvous
  /// subid for `key` — correct the publisher's cache if it was directed
  /// elsewhere (or learn on a miss).
  void note_rendezvous_owner(net::HostIndex host, const EventCtxPtr& ctx,
                             Id key, trace::SpanId parent = trace::kNoSpan);
  /// Drop `key` from every node's route cache (the zone behind it changed
  /// shape, e.g. a migration installed a bucket pointer).
  void invalidate_cached_route(Id key);
  /// Record one event drop that reliability could not mask.
  void note_event_drop(const EventCtx& ctx, std::size_t subids);
  /// Emit the event's record once no message of it is outstanding.
  void finalize_if_done(const EventCtx& ctx);

  std::uint64_t install_bytes(std::size_t dims) const {
    return overlay::kHeaderBytes + kSubIdBytes + 16 * dims;
  }

  overlay::Overlay& dht_;
  Config cfg_;
  trace::Tracer* tracer_ = nullptr;  ///< span recorder (see set_tracer)
  net::ReliableChannel channel_;  ///< event/migration transport (reliable)
  metrics::ReliabilityCounters rel_;  ///< layer decisions (reroutes, drops)
  std::vector<std::unique_ptr<HyperSubNode>> nodes_;
  std::vector<std::unique_ptr<RouteCache>> caches_;  ///< per publisher host
  SchemeTable schemes_;
  VectorDeliverySink default_sink_;
  DeliverySink* sink_ = &default_sink_;
  metrics::EventMetrics event_metrics_;
  metrics::BatchCounters batch_;
  /// Monotone cover-aggregation tallies (promotions are read from zones on
  /// demand; these hold what zones can't: wire bytes saved by grouping and
  /// the subid payload bytes actually sent, counted in both modes).
  std::uint64_t cover_subid_bytes_saved_ = 0;
  std::uint64_t subid_wire_bytes_ = 0;
  /// Events not yet finalized, by seq. Owns each context, so an event
  /// whose messages were all dropped still yields its record at
  /// finalize_events(); touched at publish and at finalize only.
  std::map<std::uint64_t, EventCtxPtr> live_;
  /// Chunks awaiting this timestep's flush, keyed per sender by next hop.
  std::vector<std::map<net::HostIndex, Frame>> batches_;
  /// Per-host, per-event delivered (subscriber node id, iid) pairs:
  /// end-to-end duplicate suppression under reliable delivery
  /// (retransmitted subtrees can re-match the same subscription through a
  /// different path). Split per subscriber host. Only populated when
  /// reliable_delivery; cleared by reset_metrics().
  std::vector<
      std::unordered_map<std::uint64_t, std::set<std::pair<Id, std::uint32_t>>>>
      delivered_subs_;
  std::uint64_t event_seq_ = 0;
  std::size_t total_subs_ = 0;
  bool owns_ownership_listener_ = false;
  /// Live-transfer machinery, indexed by host (see TransferOut/WarmState).
  std::vector<TransferOut> transfers_out_;
  std::vector<WarmState> warm_;
  JoinStats join_stats_;  ///< global transfer counters
  BulkStats bulk_stats_;

  // Event-delivery scratch, reused across process_event_message calls so
  // that a message's only allocation is the chunk block of each outgoing
  // group. No reentrant call can observe a half-used buffer: every network
  // send/schedule is asynchronous.
  struct Scratch {
    std::vector<SubId> work;     ///< the message's subids plus new matches
    std::vector<SubId> pending;  ///< subids some other node owns
    std::vector<Id> keys;
    std::vector<Routed> routed;  ///< pending, resolved to next hops
    std::vector<std::uint32_t> cand;
    std::vector<ZoneState*> zones;
  };
  Scratch scratch_;
};

}  // namespace hypersub::core
