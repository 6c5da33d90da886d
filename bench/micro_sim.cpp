// Micro-benchmark: the discrete-event engine itself — scheduling overhead
// and event throughput bound every simulated experiment's wall-clock cost.
//
// Two measurements, both written to BENCH_sim.json (override with
// --json=PATH) so successive PRs can track the engine trajectory:
//
//  1. Task SBO: the scheduler stores actions in sim::Task, a type-erased
//     callable with a 56-byte inline buffer (libstdc++'s std::function
//     only inlines 16 bytes, so the old scheduler paid one heap round
//     trip per event). A tight store/invoke loop over a capture exactly
//     the size of the dominant scheduled action — the network's delivery
//     wrapper around the event-frame handler — quantifies the saving,
//     plus the engine-level ns/event. The json records that action's real
//     size and whether it fits inline.
//
//  2. Throughput: a fig5-style pub/sub workload (full stack, every node
//     subscribing, dense event feed). Events/sec is wall-clock throughput
//     of the measured phase; a hash over the metrics snapshot and delivery
//     count is the golden value tools/bench_sanity.py re-derives in CI.
//
// --quick shrinks the run for CI; --full runs the 10k-node scale.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "bench_util.hpp"
#include "chord/chord_net.hpp"
#include "core/hypersub_system.hpp"
#include "metrics/snapshot.hpp"
#include "net/topology.hpp"
#include "sim/task.hpp"
#include "workload/zipf_workload.hpp"

namespace {

using namespace hypersub;
using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return double(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

struct Params {
  std::size_t nodes = 400;
  std::size_t subs_per_node = 5;
  std::size_t events = 2000;
  double mean_interarrival_ms = 0.5;  ///< dense feed: deep event queue
};

// --- 1. Task SBO --------------------------------------------------------

/// The action every fire-and-forget event message schedules.
using FrameAction = core::HyperSubSystem::FrameDeliveryAction;

/// A stand-in capture of exactly FrameAction's size (a sink pointer plus
/// payload words) — inline in Task, heap-spilled by std::function (16 B).
struct Capture {
  std::uint64_t* sink;
  std::uint64_t payload[(sizeof(FrameAction) - sizeof(void*)) /
                        sizeof(std::uint64_t)];
};
static_assert(sizeof(Capture) == sizeof(FrameAction));

template <class Callable>
double ns_per_store_invoke(std::size_t iters, std::uint64_t& sink) {
  Capture cap{&sink, {1, 2, 3, 4}};
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    cap.payload[0] = i;
    Callable c([cap] { *cap.sink += cap.payload[0] + cap.payload[3]; });
    c();
  }
  return ns_between(t0, Clock::now()) / double(iters);
}

double engine_ns_per_event(std::size_t n, std::uint64_t& sink) {
  sim::Simulator s;
  Capture cap{&sink, {5, 6, 7, 8}};
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    cap.payload[0] = i;
    s.schedule(double(i % 97), [cap] { *cap.sink += cap.payload[0]; });
  }
  s.run();
  return ns_between(t0, Clock::now()) / double(n);
}

// --- 2. throughput -------------------------------------------------------

struct RunResult {
  std::uint64_t executed = 0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t snapshot_hash = 0;
};

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 1469598103934665603ull) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

RunResult run_workload(const Params& p) {
  net::KingLikeTopology::Params tp;
  tp.hosts = p.nodes;
  tp.seed = 11;
  net::KingLikeTopology topo(tp);
  sim::Simulator sim;
  net::Network net(sim, topo);
  chord::ChordNet::Params cp;
  cp.seed = 11;
  chord::ChordNet chord(net, cp);
  chord.oracle_build();
  core::HyperSubSystem sys(chord, {});
  core::CountingDeliverySink sink;
  sys.set_delivery_sink(sink);

  workload::WorkloadGenerator gen(workload::table1_spec(), 23);
  core::SchemeOptions so;
  so.zone_cfg = lph::ZoneSystem::Config{1, 20};
  const auto scheme = sys.add_scheme(gen.scheme(), so);
  for (net::HostIndex h = 0; h < p.nodes; ++h) {
    for (std::size_t k = 0; k < p.subs_per_node; ++k) {
      sys.subscribe(h, scheme, gen.make_subscription());
    }
  }
  sim.run();  // drain installs outside the measured phase
  sys.reset_metrics();

  Rng rng(29);
  double t = 0.0;
  for (std::size_t i = 0; i < p.events; ++i) {
    t += rng.exponential(p.mean_interarrival_ms);
    const auto pub = net::HostIndex(rng.index(p.nodes));
    sim.schedule_at(t, [&sys, pub, scheme, ev = gen.make_event()] {
      sys.publish(pub, scheme, ev);
    });
  }

  const std::uint64_t before = sim.executed();
  const auto t0 = Clock::now();
  sim.run();
  const double wall_ns = ns_between(t0, Clock::now());
  sys.finalize_events();

  RunResult r;
  r.executed = sim.executed() - before;
  r.wall_ms = wall_ns / 1e6;
  r.events_per_sec = double(r.executed) / (wall_ns / 1e9);
  r.snapshot_hash =
      fnv1a(std::to_string(sink.count()),
            fnv1a(metrics::snapshot(sys).to_json()));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Params p;
  std::string json_path = "BENCH_sim.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      p.nodes = 10000;
      p.subs_per_node = 10;
      p.events = 4000;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      p.nodes = 200;
      p.events = 600;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }

  // --- Task SBO ---
  const std::size_t kIters = 2000000;
  std::uint64_t sink = 0;
  // Warm both paths once, then measure.
  ns_per_store_invoke<sim::Task>(kIters / 10, sink);
  ns_per_store_invoke<std::function<void()>>(kIters / 10, sink);
  const double ns_task = ns_per_store_invoke<sim::Task>(kIters, sink);
  const double ns_function =
      ns_per_store_invoke<std::function<void()>>(kIters, sink);
  const double ns_engine = engine_ns_per_event(500000, sink);
  const bool fits = sim::Task::fits_inline<FrameAction>();
  std::printf("[micro_sim] Task store+invoke %.1f ns, std::function %.1f ns "
              "(%.2fx), engine %.1f ns/event, capture inline: %s\n",
              ns_task, ns_function, ns_function / ns_task, ns_engine,
              fits ? "yes" : "no");

  // --- throughput ---
  const RunResult r = run_workload(p);
  std::printf("[micro_sim] %.0f events/sec (%llu events, %.1f ms, "
              "hash %016llx)\n",
              r.events_per_sec, (unsigned long long)r.executed, r.wall_ms,
              (unsigned long long)r.snapshot_hash);

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) {
    std::perror("fopen");
    return 1;
  }
  std::fprintf(f, "{\n \"bench\": \"micro_sim\",\n");
  hypersub::bench::write_host_json(f);
  std::fprintf(f, " \"nodes\": %zu,\n \"events\": %zu,\n", p.nodes, p.events);
  std::fprintf(f,
               " \"task_sbo\": {\n"
               "  \"ns_per_op_task\": %.2f,\n"
               "  \"ns_per_op_function\": %.2f,\n"
               "  \"speedup\": %.3f,\n"
               "  \"engine_ns_per_event\": %.2f,\n"
               "  \"capture_bytes\": %zu,\n"
               "  \"task_inline_size\": %zu,\n"
               "  \"capture_fits_inline\": %s\n },\n",
               ns_task, ns_function, ns_function / ns_task, ns_engine,
               sizeof(FrameAction), sim::Task::kInlineSize,
               fits ? "true" : "false");
  std::fprintf(f,
               " \"run\": {\"events_per_sec\": %.0f, "
               "\"executed_events\": %llu, \"wall_ms\": %.2f, "
               "\"snapshot_hash\": \"%016llx\"}\n}\n",
               r.events_per_sec, (unsigned long long)r.executed, r.wall_ms,
               (unsigned long long)r.snapshot_hash);
  std::fclose(f);
  std::printf("[micro_sim] wrote %s\n", json_path.c_str());
  return 0;
}
