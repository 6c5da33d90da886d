#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/parallel_simulator.hpp"

namespace hypersub::sim {

Simulator::Simulator() = default;
Simulator::~Simulator() = default;

Time Simulator::now() const noexcept {
  if (const auto* t = detail::worker_tls(); t && t->sim == this) {
    return t->now;
  }
  return now_;
}

Shard Simulator::current_shard() const noexcept {
  if (const auto* t = detail::worker_tls(); t && t->sim == this) {
    return t->shard;
  }
  return current_shard_;
}

bool Simulator::in_worker_context() const noexcept {
  const auto* t = detail::worker_tls();
  return t != nullptr && t->sim == this;
}

unsigned Simulator::worker_slot() const noexcept {
  if (const auto* t = detail::worker_tls(); t && t->sim == this) {
    return t->slot;
  }
  return 0;
}

void Simulator::set_threads(unsigned n) {
  if (n == 0) n = 1;
  threads_ = std::min(n, kMaxWorkers);
}

void Simulator::schedule(Time delay, Task action) {
  if (delay < 0.0) delay = 0.0;
  schedule_at_on(now() + delay, current_shard(), std::move(action));
}

void Simulator::schedule_at(Time when, Task action) {
  schedule_at_on(when, current_shard(), std::move(action));
}

void Simulator::schedule_on(Shard shard, Time delay, Task action) {
  if (delay < 0.0) delay = 0.0;
  schedule_at_on(now() + delay, shard, std::move(action));
}

void Simulator::schedule_at_on(Time when, Shard shard, Task&& action) {
  if (auto* t = detail::worker_tls(); t && t->sim == this) {
    assert(when >= t->now);
    t->engine->worker_stage(*t, when, shard, std::move(action));
    return;
  }
  assert(when >= now_);
  assert(!in_defer_apply_ && "defer_ordered closures must not schedule");
  if (engine_) {
    engine_->push_pre(when, seq_++, shard, std::move(action));
  } else {
    queue_.push(when, seq_++, shard, std::move(action));
  }
}

void Simulator::stage_defer(Task t) {
  auto* w = detail::worker_tls();
  assert(w != nullptr && w->sim == this);
  w->engine->worker_defer(*w, std::move(t));
}

void Simulator::pop_and_run() {
  // Take the action out before running it: the action may schedule new
  // events, which mutates the queue.
  const EventQueue::Key k = queue_.top();
  Task action = queue_.pop();
  now_ = k.when;
  current_shard_ = k.shard;
  ++executed_;
  action();
  current_shard_ = kNoShard;
}

std::uint64_t Simulator::run(std::uint64_t max_events) {
  if (threads_ > 1 && effective_lookahead() > 0.0 && max_events == UINT64_MAX) {
    return run_parallel(0.0, /*bounded=*/false);
  }
  std::uint64_t n = 0;
  while (!queue_.empty() && n < max_events) {
    pop_and_run();
    ++n;
  }
  return n;
}

std::uint64_t Simulator::run_until(Time until) {
  std::uint64_t n = 0;
  if (threads_ > 1 && effective_lookahead() > 0.0) {
    n = run_parallel(until, /*bounded=*/true);
  } else {
    while (!queue_.empty() && queue_.top().when <= until) {
      pop_and_run();
      ++n;
    }
  }
  if (now_ < until) now_ = until;
  return n;
}

std::uint64_t Simulator::run_parallel(Time until, bool bounded) {
  assert(!engine_ && "re-entrant run() is not supported");
  engine_ = std::make_unique<ParallelEngine>(
      *this, std::min(threads_, kMaxWorkers));
  const std::uint64_t n = engine_->run(until, bounded);
  engine_->drain_to_queue();
  engine_.reset();
  return n;
}

}  // namespace hypersub::sim
