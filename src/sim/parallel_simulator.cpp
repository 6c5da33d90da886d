#include "sim/parallel_simulator.hpp"

#include <algorithm>
#include <utility>

namespace hypersub::sim {

namespace detail {

namespace {
thread_local WorkerTls* g_worker_tls = nullptr;
}  // namespace

WorkerTls* worker_tls() noexcept { return g_worker_tls; }
void set_worker_tls(WorkerTls* t) noexcept { g_worker_tls = t; }

bool exec_before(const ExecRec* a, const ExecRec* b) noexcept {
  if (a == b) return false;
  if (a->when != b->when) return a->when < b->when;
  // Everything that entered the window with a global seq precedes
  // everything scheduled during the window at the same timestamp (the
  // sequential run would have assigned the latter larger seqs).
  if (a->pre != b->pre) return a->pre;
  if (a->pre) return a->seq < b->seq;
  return sched_before({a->parent, a->idx}, {b->parent, b->idx});
}

namespace {

/// Min-heap comparator for the live staged heap: (when, worker-local
/// stamp). Within one worker, stamp order equals sequential scheduling
/// order restricted to that worker, so this pops staged events exactly in
/// sequential-restricted order.
struct StagedLater {
  bool operator()(const Staged& a, const Staged& b) const noexcept {
    if (a.when != b.when) return a.when > b.when;
    return a.stamp > b.stamp;
  }
};

}  // namespace
}  // namespace detail

ParallelEngine::ParallelEngine(Simulator& sim, unsigned workers)
    : sim_(sim), nworkers_(workers == 0 ? 1 : workers) {
  workers_.reserve(nworkers_);
  for (unsigned i = 0; i < nworkers_; ++i) {
    workers_.push_back(std::make_unique<WorkerState>());
  }
  // Redistribute the sequential queue into per-worker heaps.
  while (!sim_.queue_.empty()) {
    const EventQueue::Key k = sim_.queue_.top();
    push_pre(k.when, k.seq, k.shard, sim_.queue_.pop());
  }
  threads_.reserve(nworkers_);
  for (unsigned i = 0; i < nworkers_; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

ParallelEngine::~ParallelEngine() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    quit_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

ParallelEngine::ShardState& ParallelEngine::shard_state(Shard shard) {
  if (shards_.size() <= shard) {
    shards_.resize(std::size_t(shard) + 1);
  }
  if (!shards_[shard]) shards_[shard] = std::make_unique<ShardState>();
  return *shards_[shard];
}

void ParallelEngine::push_pre(Time when, std::uint64_t seq, Shard shard,
                              Task&& action) {
  EventQueue& q = shard == kNoShard ? exclusive_ : shard_state(shard).heap;
  q.push(when, seq, shard, std::move(action));
}

bool ParallelEngine::peek_min(Time& when, std::uint64_t& seq,
                              bool& exclusive) const {
  bool found = false;
  const auto consider = [&](const EventQueue::Key& e, bool ex) {
    if (!found || e.when < when || (e.when == when && e.seq < seq)) {
      found = true;
      when = e.when;
      seq = e.seq;
      exclusive = ex;
    }
  };
  for (const auto& sp : shards_) {
    if (sp && !sp->heap.empty()) consider(sp->heap.top(), false);
  }
  if (!exclusive_.empty()) consider(exclusive_.top(), true);
  return found;
}

std::uint64_t ParallelEngine::run(Time until, bool bounded) {
  std::uint64_t executed = 0;
  for (;;) {
    Time w = 0.0;
    std::uint64_t s = 0;
    bool excl = false;
    if (!peek_min(w, s, excl)) break;
    if (bounded && w > until) break;

    if (excl) {
      // Exclusive events run alone on the main thread, between windows;
      // their schedules go straight into the heaps with global seqs.
      sim_.now_ = exclusive_.top().when;
      Task action = exclusive_.pop();
      sim_.current_shard_ = kNoShard;
      ++sim_.executed_;
      ++executed;
      action();
      sim_.current_shard_ = kNoShard;
      continue;
    }

    // Window [w, bound): capped by the effective-lookahead horizon, the
    // next exclusive event's position, and (when bounded) the inclusive
    // run_until position.
    detail::Bound b{w + sim_.effective_lookahead(), UINT64_MAX, true};
    if (!exclusive_.empty()) {
      const EventQueue::Key& t = exclusive_.top();
      b = detail::Bound::min(b, {t.when, t.seq, true});
    }
    if (bounded) b = detail::Bound::min(b, {until, UINT64_MAX, false});

    // Claimable shards this window, biggest backlog first (shard id breaks
    // ties deterministically): an LPT-style order so the heaviest shard
    // starts immediately and the tail self-levels across workers.
    ready_.clear();
    for (Shard sh = 0; sh < shards_.size(); ++sh) {
      ShardState* sp = shards_[sh].get();
      if (sp && !sp->heap.empty() &&
          b.admits_pre(sp->heap.top().when, sp->heap.top().seq)) {
        ready_.push_back(sh);
      }
    }
    std::sort(ready_.begin(), ready_.end(), [&](Shard a, Shard c) {
      const std::size_t la = shards_[a]->heap.size();
      const std::size_t lc = shards_[c]->heap.size();
      return la != lc ? la > lc : a < c;
    });

    {
      std::lock_guard<std::mutex> lk(mu_);
      cursor_.store(0, std::memory_order_relaxed);
      bound_ = b;
      running_ = nworkers_;
      ++epoch_;
    }
    cv_work_.notify_all();
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_done_.wait(lk, [&] { return running_ == 0; });
    }
    executed += barrier_merge();
  }
  return executed;
}

void ParallelEngine::worker_main(unsigned index) {
  detail::WorkerTls tls;
  tls.sim = &sim_;
  tls.engine = this;
  tls.slot = index + 1;
  detail::set_worker_tls(&tls);
  std::uint64_t seen = 0;
  for (;;) {
    detail::Bound b;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return quit_ || epoch_ != seen; });
      if (quit_) break;
      seen = epoch_;
      b = bound_;
    }
    tls.bound = b;
    run_window(index, b);
    bool last = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      last = --running_ == 0;
    }
    if (last) cv_done_.notify_one();
  }
  detail::set_worker_tls(nullptr);
}

void ParallelEngine::run_window(unsigned index, detail::Bound bound) {
  WorkerState& w = *workers_[index];
  detail::WorkerTls& tls = *detail::worker_tls();
  // Claim shards off the window's ready list until it runs dry. A claimed
  // shard is drained completely: once its admissible work is done it can
  // gain no more this window (same-shard staging is handled inside the
  // drain; cross-shard handoffs land at or after the bound).
  for (;;) {
    const std::size_t k = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (k >= ready_.size()) break;
    drain_shard(*shards_[ready_[k]], w, tls, bound);
  }
  tls.rec = nullptr;
  tls.shard = kNoShard;
}

void ParallelEngine::drain_shard(ShardState& s, WorkerState& w,
                                 detail::WorkerTls& tls, detail::Bound bound) {
  for (;;) {
    const bool have_pre =
        !s.heap.empty() &&
        bound.admits_pre(s.heap.top().when, s.heap.top().seq);
    const bool have_staged =
        !s.staged.empty() && bound.admits_staged(s.staged.front().when);
    bool take_staged;
    if (have_pre && have_staged) {
      // Tie on `when` goes to the pre-existing entry: its global seq
      // precedes anything scheduled during this window.
      take_staged = s.staged.front().when < s.heap.top().when;
    } else if (have_pre) {
      take_staged = false;
    } else if (have_staged) {
      take_staged = true;
    } else {
      break;
    }

    detail::ExecRec& rec = w.arena.emplace_back();
    Task action;
    if (take_staged) {
      std::pop_heap(s.staged.begin(), s.staged.end(), detail::StagedLater{});
      detail::Staged st = std::move(s.staged.back());
      s.staged.pop_back();
      rec.when = st.when;
      rec.pre = false;
      rec.parent = st.key.parent;
      rec.idx = st.key.idx;
      rec.shard = st.shard;
      action = std::move(st.action);
    } else {
      const EventQueue::Key k = s.heap.top();
      rec.when = k.when;
      rec.pre = true;
      rec.seq = k.seq;
      rec.shard = k.shard;
      action = s.heap.pop();
    }
    tls.shard = rec.shard;
    tls.now = rec.when;
    tls.rec = &rec;
    ++w.executed;
    w.max_when = std::max(w.max_when, rec.when);
    action();
  }
}

void ParallelEngine::worker_stage(detail::WorkerTls& tls, Time when,
                                  Shard shard, Task action) {
  WorkerState& w = *workers_[tls.slot - 1];
  detail::ExecRec* rec = tls.rec;
  assert(rec != nullptr);
  detail::Staged s{when, shard, {rec, rec->calls++}, 0, std::move(action)};
  if (shard == tls.shard) {
    // Same-shard: straight into the shard's live heap — this worker owns
    // the shard for the rest of the window, so no synchronization needed.
    ShardState& ss = *shards_[shard];
    s.stamp = ++ss.stamp;
    ss.staged.push_back(std::move(s));
    std::push_heap(ss.staged.begin(), ss.staged.end(), detail::StagedLater{});
  } else {
    // Conservative safety: a cross-shard handoff must land at or after
    // the window end, or another shard could miss it mid-window. Delays
    // >= lookahead always satisfy this (Network clamps link latencies).
    assert(when >= tls.bound.when &&
           "cross-shard schedule lands inside the window (delay < lookahead)");
    w.outbox.push_back(std::move(s));
  }
}

void ParallelEngine::worker_defer(detail::WorkerTls& tls, Task fn) {
  WorkerState& w = *workers_[tls.slot - 1];
  detail::ExecRec* rec = tls.rec;
  assert(rec != nullptr);
  w.defers.push_back(detail::Deferred{{rec, rec->calls++}, std::move(fn)});
}

std::uint64_t ParallelEngine::barrier_merge() {
  std::vector<detail::Staged> staged;
  std::vector<detail::Deferred> defers;
  std::uint64_t n = 0;
  Time maxw = sim_.now_;
  for (auto& sp : shards_) {
    if (!sp) continue;
    for (auto& s : sp->staged) staged.push_back(std::move(s));
    sp->staged.clear();
    sp->stamp = 0;
  }
  for (auto& wp : workers_) {
    WorkerState& w = *wp;
    n += w.executed;
    w.executed = 0;
    maxw = std::max(maxw, w.max_when);
    for (auto& s : w.outbox) staged.push_back(std::move(s));
    w.outbox.clear();
    for (auto& d : w.defers) defers.push_back(std::move(d));
    w.defers.clear();
  }
  sim_.executed_ += n;
  sim_.now_ = maxw;

  // (a) Give window-survivors their global seqs in exactly the order the
  // sequential run would have made the schedule() calls.
  std::sort(staged.begin(), staged.end(),
            [](const detail::Staged& a, const detail::Staged& b) {
              return detail::sched_before(a.key, b.key);
            });
  for (auto& s : staged) {
    push_pre(s.when, sim_.seq_++, s.shard, std::move(s.action));
  }

  // (b) Apply deferred side effects in sequential order, each under its
  // originating event's (time, shard) context.
  std::sort(defers.begin(), defers.end(),
            [](const detail::Deferred& a, const detail::Deferred& b) {
              return detail::sched_before(a.key, b.key);
            });
  sim_.in_defer_apply_ = true;
  for (auto& d : defers) {
    sim_.now_ = d.key.parent->when;
    sim_.current_shard_ = d.key.parent->shard;
    d.fn();
  }
  sim_.in_defer_apply_ = false;
  sim_.current_shard_ = kNoShard;
  sim_.now_ = maxw;

  // (c) Fold per-worker commutative counter deltas.
  sim_.run_merge_hooks();

  for (auto& wp : workers_) wp->arena.clear();
  return n;
}

void ParallelEngine::drain_to_queue() {
  const auto move_all = [&](EventQueue& q) {
    while (!q.empty()) {
      const EventQueue::Key k = q.top();
      sim_.queue_.push(k.when, k.seq, k.shard, q.pop());
    }
  };
  move_all(exclusive_);
  for (auto& sp : shards_) {
    if (sp) move_all(sp->heap);
  }
}

}  // namespace hypersub::sim
