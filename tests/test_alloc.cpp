// Allocation regression for the event hop path (paper Alg. 5). Every event
// message is one heap block — its chunk header plus its subids — so
// steady-state delivery may allocate at most once per network event
// message, plus a fixed per-publish constant (the event context, its
// projections, the tracker). Counting needs a replacement global operator
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

TEST(Alloc, SteadyStateDeliveryIsOneAllocationPerMessage) {
  constexpr std::size_t kHosts = 64;
  constexpr int kRound = 10;  // publishes per drained round
  net::KingLikeTopology::Params tp;
  tp.hosts = kHosts;
  tp.seed = 3;
  net::KingLikeTopology topo(tp);
  sim::Simulator sim;
  net::Network net(sim, topo);
  chord::ChordNet::Params cp;
  cp.seed = 3;
  chord::ChordNet chord(net, cp);
  core::HyperSubSystem::Config sc;
  sc.bootstrap = core::BootstrapMode::kOracle;
  sc.stream_event_metrics = true;
  core::HyperSubSystem sys(chord, sc);
  core::CountingDeliverySink sink;
  sys.set_delivery_sink(sink);

  workload::WorkloadGenerator gen(workload::tiny_spec(), 5);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  const auto scheme = sys.add_scheme(gen.scheme(), opt);
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    sys.subscribe(net::HostIndex(rng.index(kHosts)), scheme,
                  gen.make_subscription());
  }
  sim.run();

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

  // Warm-up: grows the reusable scratch buffers, the scheduler's slot
  // table, and the tracker table to their working sizes.
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
  // Per publish: the shared event context, its per-subscheme projections
  // and rendezvous probes, the publisher's local subid list, and the
  // tracker entry.
  constexpr std::uint64_t kPerPublish = 10;
  EXPECT_LE(news, msgs + kPerPublish * kPublishes)
      << news << " allocations for " << msgs << " event messages and "
      << kPublishes << " publishes ("
      << double(news) / double(msgs) << " per message)";
}

}  // namespace
}  // namespace hypersub
