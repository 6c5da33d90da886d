#pragma once
// ParallelEngine: the conservative-parallel execution mode of the
// discrete-event engine (internal to src/sim; the public surface is
// Simulator::set_threads / set_lookahead).
//
// Model (classic conservative DES, specialized to this codebase):
//
//   * Every event carries a shard tag (the host whose state its callback
//     touches; kNoShard = exclusive). Each shard keeps its own event heap;
//     within a window a shard is claimed whole by exactly one worker
//     (work-stealing off a per-window ready list), so one shard's events
//     never run concurrently with each other and per-host state needs no
//     locks — while load imbalance between shards self-levels instead of
//     stalling on a fixed shard-to-worker pinning.
//   * Execution proceeds in windows. A window starts at the globally
//     earliest pending event time t0 and ends at the position
//       min( (t0 + effective lookahead),  next exclusive event,
//            run_until bound ).
//     The effective lookahead is max(configured lookahead, adaptive floor)
//     — see Simulator::set_lookahead_floor. Within the window the claiming
//     worker drains the shard's heap in (when, pre-existing-first,
//     scheduling-order) order — provably the sequential execution order
//     restricted to that shard (see DESIGN.md for the induction).
//   * Cross-shard handoffs (network sends, explicit schedule_on) are
//     delayed by >= lookahead, so nothing scheduled inside a window can
//     land inside the same window on another shard: each worker's inputs
//     are complete before the window starts. Same-shard schedules go
//     straight into the worker's live heap and can execute in-window.
//   * At the window barrier the main thread (a) sorts every event staged
//     during the window by its sequential scheduling position — (executing
//     event's position, per-event call index), compared recursively
//     through ExecRec parent chains — and assigns global seq numbers in
//     that order, (b) executes defer_ordered closures in the same
//     sequential order, and (c) runs merge hooks. Relative (when, seq)
//     order of all surviving events therefore matches the sequential run
//     exactly, which is all downstream code can observe: a parallel run
//     is byte-identical to the sequential run at the same lookahead.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include <condition_variable>

#include "sim/simulator.hpp"

namespace hypersub::sim {

namespace detail {

/// Execution record of one event run inside the current window — the
/// node of the "who scheduled what" forest that reconstructs sequential
/// scheduling order at the barrier. Arena-allocated per worker per window
/// (pointers stable until the barrier clears the arenas).
struct ExecRec {
  Time when = 0.0;
  bool pre = false;            ///< true: entered the window with a global seq
  std::uint64_t seq = 0;       ///< valid when pre
  const ExecRec* parent = nullptr;  ///< valid when !pre: who scheduled it...
  std::uint32_t idx = 0;            ///< ...and as its how-many-eth call
  Shard shard = kNoShard;
  std::uint32_t calls = 0;     ///< schedule/defer calls made by this event
};

/// Strict total order: would `a` execute before `b` in the sequential run?
bool exec_before(const ExecRec* a, const ExecRec* b) noexcept;

/// One schedule()/defer_ordered() call site: the calling event's record
/// plus the call's index within that event.
struct SchedKey {
  const ExecRec* parent = nullptr;
  std::uint32_t idx = 0;
};

/// Would call site `a` happen before call site `b` sequentially?
inline bool sched_before(const SchedKey& a, const SchedKey& b) noexcept {
  if (a.parent == b.parent) return a.idx < b.idx;
  return exec_before(a.parent, b.parent);
}

/// An event scheduled from a worker during a window; receives its global
/// seq at the barrier, in sched_before order.
struct Staged {
  Time when;
  Shard shard;
  SchedKey key;
  std::uint64_t stamp;  ///< worker-local scheduling order (live-heap tiebreak)
  Task action;
};

/// A defer_ordered closure staged by a worker.
struct Deferred {
  SchedKey key;
  Task fn;
};

/// Exclusive upper bound of a window, as a position in (when, seq) space.
/// A pre-existing entry (w, s) is in-window iff w < when, or w == when and
/// s < seq. A staged entry at w is in-window iff w < when, or w == when
/// and !staged_strict (staged entries order after every pre-existing entry
/// at the same timestamp, so a bound at an existing event's position
/// excludes them; only the inclusive run_until bound admits them).
struct Bound {
  Time when = 0.0;
  std::uint64_t seq = 0;
  bool staged_strict = true;

  bool admits_pre(Time w, std::uint64_t s) const noexcept {
    return w < when || (w == when && s < seq);
  }
  bool admits_staged(Time w) const noexcept {
    return w < when || (w == when && !staged_strict);
  }
  /// Tighter-position-wins combine.
  static Bound min(const Bound& a, const Bound& b) noexcept {
    if (a.when != b.when) return a.when < b.when ? a : b;
    if (a.seq != b.seq) return a.seq < b.seq ? a : b;
    return a.staged_strict ? a : b;
  }
};

/// Thread-local execution context of one parallel worker. Simulator's
/// public accessors (now, current_shard, worker_slot, schedule) consult it
/// so instrumented code behaves identically inside and outside windows.
struct WorkerTls {
  Simulator* sim = nullptr;
  ParallelEngine* engine = nullptr;
  unsigned slot = 0;        ///< 1..threads (0 is the main thread)
  Shard shard = kNoShard;   ///< currently executing event's shard
  Time now = 0.0;           ///< currently executing event's timestamp
  ExecRec* rec = nullptr;   ///< currently executing event's record
  Bound bound;              ///< current window bound (staging assertions)
};

/// The calling thread's worker context, or nullptr off the worker pool.
WorkerTls* worker_tls() noexcept;
void set_worker_tls(WorkerTls* t) noexcept;

}  // namespace detail

/// Owns the worker pool and per-worker state for one parallel run segment.
/// Constructed by Simulator::run_parallel, destroyed when the segment ends
/// (remaining events are handed back to the sequential queue).
class ParallelEngine {
 public:
  ParallelEngine(Simulator& sim, unsigned workers);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Execute until the engine drains or (if bounded) every remaining
  /// event is later than `until`. Returns events executed.
  std::uint64_t run(Time until, bool bounded);

  /// Main-thread push of an already-sequenced entry (exclusive events'
  /// schedules during a run).
  void push_pre(Time when, std::uint64_t seq, Shard shard, Task&& action);

  /// Hand every remaining entry back to the Simulator queue.
  void drain_to_queue();

  // -- worker-side hooks (called via TLS from Simulator) --------------------
  void worker_stage(detail::WorkerTls& tls, Time when, Shard shard,
                    Task action);
  void worker_defer(detail::WorkerTls& tls, Task fn);

 private:
  // One shard's event state. A shard is claimed *whole* by exactly one
  // worker per window (work-stealing at window granularity): workers pull
  // shard indices off the window's ready list through an atomic cursor, so
  // a shard's events still never run concurrently with each other and
  // per-host state needs no locks — but a slow shard no longer idles every
  // worker it isn't pinned to.
  struct ShardState {
    EventQueue heap;                     // pre-sequenced entries
    std::vector<detail::Staged> staged;  // live same-shard heap (by when,stamp)
    std::uint64_t stamp = 0;             // scheduling order within the shard
  };

  /// Per-worker scratch: staging that is merged (and globally re-sorted)
  /// at the barrier, so which worker produced it cannot matter.
  struct WorkerState {
    std::vector<detail::Staged> outbox;  // cross-shard / future handoffs
    std::vector<detail::Deferred> defers;
    std::deque<detail::ExecRec> arena;
    std::uint64_t executed = 0;
    Time max_when = 0.0;
  };

  void worker_main(unsigned index);
  void run_window(unsigned index, detail::Bound bound);
  void drain_shard(ShardState& s, WorkerState& w, detail::WorkerTls& tls,
                   detail::Bound bound);
  std::uint64_t barrier_merge();
  bool peek_min(Time& when, std::uint64_t& seq, bool& exclusive) const;

  ShardState& shard_state(Shard shard);

  Simulator& sim_;
  unsigned nworkers_;
  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::vector<std::unique_ptr<ShardState>> shards_;  // index = shard id
  EventQueue exclusive_;  // kNoShard entries

  // Per-window shard claim list: built by the main thread (largest heap
  // first, shard id as the deterministic tiebreak), consumed by workers
  // via fetch_add. Published before epoch_ under mu_.
  std::vector<Shard> ready_;
  std::atomic<std::size_t> cursor_{0};

  // window hand-off: main publishes bound_/epoch_, workers run, last one
  // signals done. The mutex also carries the happens-before edges that
  // make all single-owner state safely visible across windows.
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;
  unsigned running_ = 0;
  bool quit_ = false;
  detail::Bound bound_;
};

}  // namespace hypersub::sim
