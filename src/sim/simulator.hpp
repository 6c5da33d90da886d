#pragma once
// Discrete event-driven simulation engine (the p2psim substitute's core).
//
// The engine executes scheduled callbacks in non-decreasing virtual-time
// order; ties break by scheduling order so runs are fully deterministic.
// Virtual time is in milliseconds (double), matching the paper's latency
// units.
//
// Execution is sequential by default. A conservative-parallel mode
// (set_threads(N) with set_lookahead(L) > 0) shards events by owning host
// across a worker pool and executes each lookahead window [t, t+L)
// concurrently; side effects are merged deterministically in (when, seq)
// order at a window barrier, so a parallel run is byte-identical to the
// sequential run with the same lookahead (see DESIGN.md "Parallel engine"
// and tests/test_determinism.cpp). Independent Simulator instances on
// separate threads remain supported (no shared mutable state between
// instances).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/task.hpp"

namespace hypersub::sim {

class ParallelEngine;
namespace detail {
struct WorkerTls;
}

/// Discrete-event scheduler. Typical usage:
///
///   Simulator s;
///   s.schedule(5.0, []{ ... });   // run 5 ms from now
///   s.run();                      // drain the event queue
class Simulator {
 public:
  using Action = Task;

  Simulator();
  ~Simulator();

  /// Current virtual time. 0 before any event has run. Inside a parallel
  /// window this is the executing event's own timestamp (thread-local),
  /// exactly matching what the sequential run would report.
  Time now() const noexcept;

  /// Schedule `action` to run `delay` ms from now. Negative delays clamp
  /// to "immediately" (same-time events run in scheduling order). The
  /// event inherits the scheduling context's shard: events scheduled from
  /// within a shard-tagged event stay on that shard; events scheduled
  /// from outside any event (or from an exclusive event) are exclusive.
  void schedule(Time delay, Task action);

  /// Schedule at an absolute virtual time (>= now()). Inherits the
  /// current shard like schedule().
  void schedule_at(Time when, Task action);

  /// Schedule on an explicit shard. In parallel mode a cross-shard
  /// schedule from inside a window must land at or after the window end;
  /// delays >= lookahead() always satisfy this (network sends are clamped
  /// accordingly by net::Network).
  void schedule_on(Shard shard, Time delay, Task action);

  /// Run until the queue drains or `max_events` have executed.
  /// Returns the number of events executed. A bounded run (max_events !=
  /// UINT64_MAX) always executes sequentially — pause/resume has no
  /// parallel meaning — which is behaviorally identical by construction.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  /// Run events with time <= `until`, leaving later events queued.
  std::uint64_t run_until(Time until);

  /// Events currently queued.
  std::size_t pending() const noexcept { return queue_.size(); }

  /// Total events executed so far.
  std::uint64_t executed() const noexcept { return executed_; }

  // -- parallel execution ----------------------------------------------------

  /// Maximum worker threads a Simulator will spawn (worker_slot() fits in
  /// [0, kMaxWorkers]).
  static constexpr unsigned kMaxWorkers = 32;

  /// Use `n` worker threads for subsequent run()/run_until() calls.
  /// n <= 1 keeps the sequential engine. Parallel execution additionally
  /// requires lookahead() > 0; otherwise runs stay sequential.
  void set_threads(unsigned n);
  unsigned threads() const noexcept { return threads_; }

  /// Conservative lookahead L (ms). Layers that hand events across shards
  /// must delay them by at least L (net::Network clamps link latencies to
  /// L); in exchange every window [t, t+L) can execute in parallel. The
  /// same L must be set on a sequential run for byte-identical output.
  void set_lookahead(Time l) { lookahead_ = l < 0.0 ? 0.0 : l; }
  Time lookahead() const noexcept { return lookahead_; }

  /// Adaptive lower bound on the lookahead, derived by the network layer
  /// from the minimum outstanding link latency (net::Network's adaptive
  /// mode re-derives it on every membership change). Window width and all
  /// cross-shard delay clamps use effective_lookahead(), so a wider floor
  /// means wider windows without any behavioral difference: no link can
  /// deliver below the floor anyway. May only change from an exclusive or
  /// main-thread context (never mid-window), which keeps parallel runs
  /// byte-identical to sequential ones at the same floor.
  void set_lookahead_floor(Time f) {
    lookahead_floor_ = f < 0.0 ? 0.0 : f;
  }
  Time lookahead_floor() const noexcept { return lookahead_floor_; }

  /// The lookahead actually in force: max(lookahead, floor).
  Time effective_lookahead() const noexcept {
    return lookahead_ > lookahead_floor_ ? lookahead_ : lookahead_floor_;
  }

  /// Shard of the currently executing event (kNoShard outside events and
  /// in exclusive events). Identical in sequential and parallel runs.
  Shard current_shard() const noexcept;

  /// True while executing inside a parallel worker (never true in
  /// sequential mode or on the main thread).
  bool in_worker_context() const noexcept;

  /// Stable slot of the current execution context: 0 for the main thread
  /// (sequential runs, exclusive events, merge phases), 1..threads() for
  /// workers. For indexing per-context scratch arrays sized kMaxWorkers+1.
  unsigned worker_slot() const noexcept;

  /// Execute `f` at a point that is deterministically ordered: inline when
  /// called from a sequential run, the main thread, or an exclusive event;
  /// from a parallel worker it is staged and executed at the window
  /// barrier in exactly the order the sequential run would have executed
  /// it (sorted by the calling event's position and call index). Use for
  /// all writes to cross-shard state (global counters, metric sinks,
  /// caches). Deferred closures must not call schedule().
  template <class F>
  void defer_ordered(F&& f) {
    if (!in_worker_context()) {
      f();
      return;
    }
    stage_defer(Task(std::forward<F>(f)));
  }

  /// Register a hook run on the main thread at every window barrier (and
  /// once when a parallel run finishes) — the place to fold per-worker
  /// commutative counter deltas into their totals.
  void add_merge_hook(std::function<void()> hook) {
    merge_hooks_.push_back(std::move(hook));
  }

 private:
  friend class ParallelEngine;

  void schedule_at_on(Time when, Shard shard, Task&& action);
  void pop_and_run();
  void stage_defer(Task t);
  std::uint64_t run_parallel(Time until, bool bounded);
  void run_merge_hooks() {
    for (auto& h : merge_hooks_) h();
  }

  EventQueue queue_;  // seq is the FIFO tiebreak for equal timestamps
  Time now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  Shard current_shard_ = kNoShard;  // sequential / main-thread context
  bool in_defer_apply_ = false;
  unsigned threads_ = 1;
  Time lookahead_ = 0.0;
  Time lookahead_floor_ = 0.0;
  std::vector<std::function<void()>> merge_hooks_;
  std::unique_ptr<ParallelEngine> engine_;  // live only during parallel runs
};

}  // namespace hypersub::sim
