// Unit tests for the discrete-event simulation engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/hypersub_system.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace hypersub::sim {
namespace {

TEST(Simulator, RunsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule(10.0, [&] { order.push_back(2); });
  s.schedule(5.0, [&] { order.push_back(1); });
  s.schedule(20.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 20.0);
}

TEST(Simulator, FifoTiebreakAtEqualTimes) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(Simulator, NestedScheduling) {
  Simulator s;
  std::vector<double> times;
  s.schedule(1.0, [&] {
    times.push_back(s.now());
    s.schedule(2.0, [&] { times.push_back(s.now()); });
  });
  s.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 3.0);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator s;
  double fired = -1.0;
  s.schedule(5.0, [&] {
    s.schedule(-3.0, [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_DOUBLE_EQ(fired, 5.0);
}

TEST(Simulator, RunUntilLeavesLaterEvents) {
  Simulator s;
  int ran = 0;
  s.schedule(1.0, [&] { ++ran; });
  s.schedule(2.0, [&] { ++ran; });
  s.schedule(3.0, [&] { ++ran; });
  const auto n = s.run_until(2.0);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
  s.run();
  EXPECT_EQ(ran, 3);
}

TEST(Simulator, RunUntilAdvancesTimeWhenIdle) {
  Simulator s;
  s.run_until(42.0);
  EXPECT_DOUBLE_EQ(s.now(), 42.0);
}

TEST(Simulator, MaxEventsBound) {
  Simulator s;
  int ran = 0;
  for (int i = 0; i < 5; ++i) s.schedule(double(i), [&] { ++ran; });
  EXPECT_EQ(s.run(3), 3u);
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(s.pending(), 2u);
}

TEST(Simulator, ExecutedCounter) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule(1.0, [] {});
  s.run();
  EXPECT_EQ(s.executed(), 7u);
}

TEST(Simulator, ScheduleAtAbsolute) {
  Simulator s;
  double t = 0.0;
  s.schedule_at(9.5, [&] { t = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(t, 9.5);
}

// Stress: a self-rescheduling chain stays deterministic and ordered.
TEST(Simulator, LongChainDeterministic) {
  Simulator s;
  int count = 0;
  std::function<void()> step = [&] {
    if (++count < 10000) s.schedule(0.1, step);
  };
  s.schedule(0.1, step);
  s.run();
  EXPECT_EQ(count, 10000);
  EXPECT_NEAR(s.now(), 1000.0, 1e-6);
}

// --- edge cases ---------------------------------------------------------

TEST(Simulator, RunUntilIncludesEqualTimeTies) {
  // run_until's boundary is inclusive, and equal-time events at the
  // boundary keep their FIFO order — including one scheduled *at* the
  // boundary by a boundary event itself.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(2.0, [&] {
    order.push_back(1);
    s.schedule(0.0, [&] { order.push_back(3); });
  });
  s.schedule_at(2.0, [&] { order.push_back(2); });
  s.schedule_at(2.0000001, [&] { order.push_back(4); });
  const auto n = s.run_until(2.0);
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
}

TEST(Simulator, MaxEventsPauseAndResume) {
  // Pausing on the event budget must not lose queued events, reorder the
  // remainder, or disturb the clock; resuming picks up exactly where the
  // budget ran out.
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    s.schedule(double(i), [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(s.run(2), 2u);
  EXPECT_DOUBLE_EQ(s.now(), 1.0);
  EXPECT_EQ(s.pending(), 4u);
  EXPECT_EQ(s.run(3), 3u);
  EXPECT_DOUBLE_EQ(s.now(), 4.0);
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(s.executed(), 6u);
}

TEST(Simulator, FifoTiebreakAcrossScheduleAndScheduleAt) {
  // schedule(delay) and schedule_at(when) landing on the same timestamp
  // share one submission order — the tie-break is global, not per-API.
  Simulator s;
  std::vector<int> order;
  s.schedule(3.0, [&] { order.push_back(0); });
  s.schedule_at(3.0, [&] { order.push_back(1); });
  s.schedule(3.0, [&] { order.push_back(2); });
  s.schedule_at(3.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Simulator, NegativeDelayKeepsFifoWithExistingEvents) {
  // A clamped negative delay behaves exactly like delay 0: it queues
  // behind events already pending at the current time.
  Simulator s;
  std::vector<int> order;
  s.schedule(5.0, [&] {
    order.push_back(1);
    s.schedule(-2.0, [&] { order.push_back(3); });
  });
  s.schedule(5.0, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// --- EventQueue ------------------------------------------------------------

TEST(EventQueue, RandomInterleavingPopsInWhenSeqOrderAndReusesSlots) {
  Rng rng(17);
  EventQueue q;
  // Reference: the pending (when, seq) set; each action reports its seq.
  std::set<std::pair<Time, std::uint64_t>> ref;
  std::uint64_t seq = 0;
  std::uint64_t ran = 0;
  std::size_t peak = 0;
  std::uint32_t max_slot = 0;
  for (int round = 0; round < 200; ++round) {
    // Bursts of pushes then pops, so the queue repeatedly grows, shrinks
    // and regrows; few distinct timestamps force (when) ties.
    for (std::size_t i = rng.index(60); i > 0; --i) {
      const Time when = double(rng.index(25)) * 0.5;
      const std::uint64_t s = seq++;
      q.push(when, s, [&ran, s] { ran = s; });
      ref.emplace(when, s);
      peak = std::max(peak, ref.size());
    }
    for (std::size_t i = rng.index(70); i > 0 && !q.empty(); --i) {
      const auto expect = *ref.begin();
      ref.erase(ref.begin());
      const EventQueue::Key k = q.top();
      ASSERT_EQ(k.when, expect.first);
      ASSERT_EQ(k.seq, expect.second);
      max_slot = std::max(max_slot, k.slot);
      Task t = q.pop();
      t();
      ASSERT_EQ(ran, expect.second);
    }
    ASSERT_EQ(q.size(), ref.size());
  }
  // Freed slots are reused: no slot index ever exceeds the peak backlog.
  EXPECT_LT(std::size_t(max_slot), peak);
}

TEST(Simulator, RandomNestedSchedulingMatchesReferenceOrder) {
  // Every event, when it runs, schedules 0-3 children at delays drawn from
  // a small set (many same-time ties, including zero delay). The children
  // an event spawns depend only on its own id, so a reference model over
  // (when, id) — id being the scheduling order — predicts the exact
  // execution order the engine must produce.
  struct Child {
    Time delay;
  };
  const auto children = [](std::uint64_t id) {
    Rng r(1000 + id);
    std::vector<Child> out(id < 3000 ? r.index(4) : 0);
    for (auto& c : out) c.delay = double(r.index(4)) * 0.25;
    return out;
  };

  std::vector<std::uint64_t> expected;
  {
    std::set<std::pair<Time, std::uint64_t>> pending;
    std::uint64_t next = 0;
    for (int i = 0; i < 40; ++i) pending.emplace(double(i % 5), next++);
    while (!pending.empty()) {
      const auto [when, id] = *pending.begin();
      pending.erase(pending.begin());
      expected.push_back(id);
      for (const Child& c : children(id)) {
        pending.emplace(when + c.delay, next++);
      }
    }
  }

  Simulator s;
  std::vector<std::uint64_t> got;
  std::uint64_t next = 0;
  std::function<void(std::uint64_t)> run_event = [&](std::uint64_t id) {
    got.push_back(id);
    for (const Child& c : children(id)) {
      const std::uint64_t child = next++;
      s.schedule(c.delay, [&run_event, child] { run_event(child); });
    }
  };
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t id = next++;
    s.schedule_at(double(i % 5), [&run_event, id] { run_event(id); });
  }
  s.run();
  EXPECT_GT(got.size(), 1000u);
  EXPECT_EQ(got, expected);
}

// --- Task (SBO callable) ------------------------------------------------

TEST(Task, SmallCapturesStayInline) {
  struct Small {
    void* a;
    std::uint64_t b[6];
    void operator()() {}
  };
  static_assert(sizeof(Small) == Task::kInlineSize);
  EXPECT_TRUE(Task::fits_inline<Small>());
  EXPECT_EQ(sizeof(Task), 64u);
}

TEST(Task, NetworkFrameDeliveryStaysInline) {
  // The action every fire-and-forget event message schedules: the
  // network's liveness wrapper around the event-frame handler. If a capture
  // change pushes it past the inline buffer, every message pays a heap
  // allocation again — this must fail to compile first.
  using Action = core::HyperSubSystem::FrameDeliveryAction;
  static_assert(Task::fits_inline<Action>(),
                "event-frame delivery closure spilled out of Task's buffer");
  EXPECT_LE(sizeof(Action), Task::kInlineSize);
  // The frame action owns its chunk blocks outright: a copyable (refcounted)
  // handle creeping back in would bring back its control-block allocation.
  static_assert(!std::is_copy_constructible_v<Action>,
                "event-frame delivery must own its frame (move-only)");
  // A plain std::function handler (the shape of the remaining type-erased
  // callers) also stays inline once wrapped.
  EXPECT_TRUE(
      Task::fits_inline<net::Network::Delivery<std::function<void()>>>());
}

TEST(Task, LargeCapturesSpillToHeapAndStillRun) {
  std::uint64_t big[16] = {};
  big[15] = 7;
  int out = 0;
  auto fn = [big, &out] { out = int(big[15]); };
  EXPECT_FALSE(Task::fits_inline<decltype(fn)>());
  Task t(fn);
  std::move(t)();
  EXPECT_EQ(out, 7);
}

TEST(Task, MoveTransfersOwnershipExactlyOnce) {
  // A move-only capture proves the stored callable is relocated, not
  // copied, and destroyed exactly once.
  auto p = std::make_unique<int>(41);
  int out = 0;
  Task a([p = std::move(p), &out] { out = ++*p; });
  EXPECT_TRUE(bool(a));
  Task b(std::move(a));
  EXPECT_FALSE(bool(a));
  Task c;
  c = std::move(b);
  EXPECT_FALSE(bool(b));
  c();
  EXPECT_EQ(out, 42);
}

}  // namespace
}  // namespace hypersub::sim
