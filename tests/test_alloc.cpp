// Allocation regression for the event hop path (paper Alg. 5). Every event
// message is one heap block — its chunk header plus its subids — so
// steady-state delivery may allocate at most once per network event
// message, plus a fixed per-publish constant (the event context with its
// tracker, its projections, its live-event entry). Counting needs a replacement global operator
// new, which is why this file is an executable of its own.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "chord/chord_net.hpp"
#include "core/delivery_sink.hpp"
#include "core/hypersub_system.hpp"
#include "net/topology.hpp"
#include "workload/scheme_factory.hpp"
#include "workload/zipf_workload.hpp"

namespace {
std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t n) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

// Every plain, array and nothrow form is replaced, so each allocation is
// counted once and every block meets a matching deallocation (sanitizer
// runtimes check that pairing).
void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace hypersub {
namespace {

constexpr std::size_t kHosts = 64;

/// The 64-host tiny-workload stack both tests measure, with 400 routed
/// subscriptions installed and drained.
struct TinyStack {
  net::KingLikeTopology topo{[] {
    net::KingLikeTopology::Params tp;
    tp.hosts = kHosts;
    tp.seed = 3;
    return tp;
  }()};
  sim::Simulator sim;
  net::Network net{sim, topo};
  chord::ChordNet chord{net, [] {
                          chord::ChordNet::Params cp;
                          cp.seed = 3;
                          return cp;
                        }()};
  core::HyperSubSystem sys{chord, [] {
                             core::HyperSubSystem::Config sc;
                             sc.bootstrap = core::BootstrapMode::kOracle;
                             sc.stream_event_metrics = true;
                             return sc;
                           }()};
  core::CountingDeliverySink sink;
  workload::WorkloadGenerator gen{workload::tiny_spec(), 5};
  std::uint32_t scheme = 0;
  Rng rng{7};
  std::vector<core::SubscriptionHandle> handles;

  TinyStack() {
    sys.set_delivery_sink(sink);
    core::SchemeOptions opt;
    opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
    scheme = sys.add_scheme(gen.scheme(), opt);
    for (int i = 0; i < 400; ++i) {
      handles.push_back(sys.subscribe(net::HostIndex(rng.index(kHosts)),
                                      scheme, gen.make_subscription()));
    }
    sim.run();
  }
};

TEST(Alloc, SteadyStateDeliveryIsOneAllocationPerMessage) {
  constexpr int kRound = 10;  // publishes per drained round
  TinyStack st;
  sim::Simulator& sim = st.sim;
  core::HyperSubSystem& sys = st.sys;
  core::CountingDeliverySink& sink = st.sink;
  workload::WorkloadGenerator& gen = st.gen;
  Rng& rng = st.rng;
  const std::uint32_t scheme = st.scheme;

  // Events and publishers are drawn up front so the measured window holds
  // only the system's own work.
  auto make_rounds = [&](int rounds) {
    std::vector<std::pair<net::HostIndex, pubsub::Event>> evs;
    for (int i = 0; i < rounds * kRound; ++i) {
      evs.emplace_back(net::HostIndex(rng.index(kHosts)), gen.make_event());
    }
    return evs;
  };
  auto run_rounds = [&](std::vector<std::pair<net::HostIndex,
                                              pubsub::Event>>& evs) {
    for (std::size_t i = 0; i < evs.size(); ++i) {
      sys.publish(evs[i].first, scheme, std::move(evs[i].second));
      if ((i + 1) % kRound == 0) sim.run();
    }
  };

  // Warm-up: grows the reusable scratch buffers and the scheduler's slot
  // table to their working sizes.
  auto warm = make_rounds(10);
  run_rounds(warm);

  constexpr int kRounds = 30;
  constexpr std::uint64_t kPublishes = kRounds * kRound;
  auto evs = make_rounds(kRounds);
  const std::uint64_t msgs0 = sys.batch_counters().chunks;
  const std::uint64_t delivered0 = sink.count();
  const std::uint64_t news0 = g_news.load();
  run_rounds(evs);
  const std::uint64_t news = g_news.load() - news0;
  const std::uint64_t msgs = sys.batch_counters().chunks - msgs0;

  ASSERT_GT(sink.count() - delivered0, kPublishes);  // real fan-out
  ASSERT_GT(msgs, 4 * kPublishes);
  // Per publish: the shared event context (which holds the tracker), its
  // per-subscheme projections and rendezvous probes, the publisher's local
  // subid list, and the live-event map entry.
  constexpr std::uint64_t kPerPublish = 10;
  EXPECT_LE(news, msgs + kPerPublish * kPublishes)
      << news << " allocations for " << msgs << " event messages and "
      << kPublishes << " publishes ("
      << double(news) / double(msgs) << " per message)";
}

// The routed write path of Alg. 3: steady-state replacements (unsubscribe
// the oldest subscription, subscribe a fresh one) each route a removal and
// an install to their surrogates, apply them there and cascade the summary
// change as pieces. The bound is the measured 18.27 allocations per
// replacement, rounded up: a change to the write path must not raise it.
// (It was 24 while every removal and piece refolded the zone's summary
// into a fresh rectangle and a removal copied the summary and the removed
// entry: 23.08 measured.)
TEST(Alloc, SteadyStateRoutedWritesAreBounded) {
  constexpr int kRound = 25;  // replacements per drained round
  TinyStack st;
  std::size_t oldest = 0;
  // Subscribers and subscriptions are drawn up front, as the events are
  // above.
  auto make_rounds = [&](int rounds) {
    std::vector<std::pair<net::HostIndex, pubsub::Subscription>> subs;
    for (int i = 0; i < rounds * kRound; ++i) {
      subs.emplace_back(net::HostIndex(st.rng.index(kHosts)),
                        st.gen.make_subscription());
    }
    return subs;
  };
  auto run_rounds = [&](std::vector<std::pair<net::HostIndex,
                                              pubsub::Subscription>>& subs) {
    for (std::size_t i = 0; i < subs.size(); ++i) {
      st.sys.unsubscribe(st.handles[oldest++]);
      st.handles.push_back(
          st.sys.subscribe(subs[i].first, st.scheme, std::move(subs[i].second)));
      if ((i + 1) % kRound == 0) st.sim.run();
    }
  };

  auto warm = make_rounds(8);
  st.handles.reserve(st.handles.size() + 40 * kRound);
  run_rounds(warm);

  constexpr int kRounds = 30;
  constexpr std::uint64_t kReplacements = kRounds * kRound;
  auto subs = make_rounds(kRounds);
  const std::uint64_t news0 = g_news.load();
  run_rounds(subs);
  const std::uint64_t news = g_news.load() - news0;

  ASSERT_EQ(st.sys.total_subscriptions(), 400u);
  constexpr std::uint64_t kPerReplacement = 19;
  EXPECT_LE(news, kPerReplacement * kReplacements)
      << news << " allocations for " << kReplacements << " replacements ("
      << double(news) / double(kReplacements) << " per replacement)";
}

}  // namespace
}  // namespace hypersub
