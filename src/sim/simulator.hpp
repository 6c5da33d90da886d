#pragma once
// Discrete event-driven simulation engine (the p2psim substitute's core).
//
// The engine executes scheduled callbacks in non-decreasing virtual-time
// order; ties break by scheduling order so runs are fully deterministic.
// Virtual time is in milliseconds (double), matching the paper's latency
// units. Execution is sequential, as in p2psim (DESIGN.md, "Why the engine
// is sequential"); independent Simulator instances on separate threads are
// supported (no shared mutable state between instances), which is how
// runner::run_experiments_parallel spreads independent runs over cores.

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/task.hpp"

namespace hypersub::sim {

/// Discrete-event scheduler. Typical usage:
///
///   Simulator s;
///   s.schedule(5.0, []{ ... });   // run 5 ms from now
///   s.run();                      // drain the event queue
class Simulator {
 public:
  using Action = Task;

  /// Current virtual time. 0 before any event has run.
  Time now() const noexcept { return now_; }

  /// Schedule `action` to run `delay` ms from now. Negative delays clamp
  /// to "immediately" (same-time events run in scheduling order).
  void schedule(Time delay, Task action);

  /// Schedule at an absolute virtual time (>= now()).
  void schedule_at(Time when, Task action);

  /// Run until the queue drains or `max_events` have executed.
  /// Returns the number of events executed.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  /// Run events with time <= `until`, leaving later events queued.
  std::uint64_t run_until(Time until);

  /// Events currently queued.
  std::size_t pending() const noexcept { return queue_.size(); }

  /// Total events executed so far.
  std::uint64_t executed() const noexcept { return executed_; }

 private:
  void pop_and_run();

  EventQueue queue_;  // seq is the FIFO tiebreak for equal timestamps
  Time now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace hypersub::sim
