#include "sim/simulator.hpp"

#include <cassert>
#include <utility>

namespace hypersub::sim {

void Simulator::schedule(Time delay, Task action) {
  if (delay < 0.0) delay = 0.0;
  queue_.push(now_ + delay, seq_++, std::move(action));
}

void Simulator::schedule_at(Time when, Task action) {
  assert(when >= now_);
  queue_.push(when, seq_++, std::move(action));
}

void Simulator::pop_and_run() {
  // Take the action out before running it: the action may schedule new
  // events, which mutates the queue.
  const EventQueue::Key k = queue_.top();
  Task action = queue_.pop();
  now_ = k.when;
  ++executed_;
  action();
}

std::uint64_t Simulator::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (!queue_.empty() && n < max_events) {
    pop_and_run();
    ++n;
  }
  return n;
}

std::uint64_t Simulator::run_until(Time until) {
  std::uint64_t n = 0;
  while (!queue_.empty() && queue_.top().when <= until) {
    pop_and_run();
    ++n;
  }
  if (now_ < until) now_ = until;
  return n;
}

}  // namespace hypersub::sim
