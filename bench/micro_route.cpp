// Micro-benchmark: the publish fast lane — rendezvous route caching and
// per-next-hop frame batching.
//
// A Zipf-hot event feed (repeated rendezvous zones, bursty publishers)
// runs twice over an identical network and subscription population: once
// with the fast lane off (the paper's publish path) and once with the
// route cache + batching on. We report mean publish hops, packet-header
// bytes per event, and the cache/batching counters, verify the delivery
// counts agree, and write machine-readable results to BENCH_route.json
// (override with --json=PATH) so successive PRs can track the publish-path
// trajectory. --quick shrinks the run for CI; --full scales it up.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "chord/chord_net.hpp"
#include "common/zipf.hpp"
#include "core/hypersub_system.hpp"
#include "metrics/snapshot.hpp"
#include "net/topology.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "workload/zipf_workload.hpp"

namespace {

using namespace hypersub;

struct Params {
  std::size_t nodes = 300;
  std::size_t subs_per_node = 5;
  std::size_t pool = 64;        ///< distinct hot events (rendezvous zones)
  std::size_t publishers = 6;  ///< distinct feed nodes (caches are per node)
  std::size_t warm_rounds = 30;
  std::size_t rounds = 80;
  std::size_t burst = 4;  ///< events per publisher per quiescent step
  double zipf_skew = 0.95;
};

struct RunResult {
  double mean_publish_hops = 0.0;
  double mean_header_bytes = 0.0;
  double mean_bandwidth_kb = 0.0;
  std::uint64_t deliveries = 0;
  double wall_ns_per_event = 0.0;  ///< host wall time of the measured phase
  metrics::Snapshot snap;
};

/// One live benched system: the full stack plus its Zipf feed state, so a
/// caller can drive rounds incrementally (the overhead measurement
/// interleaves rounds of two coexisting systems).
struct BenchRun {
  std::unique_ptr<net::KingLikeTopology> topo;
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<chord::ChordNet> chord;
  std::unique_ptr<core::HyperSubSystem> sys;
  core::CountingDeliverySink sink;
  std::vector<pubsub::Event> pool;
  std::unique_ptr<ZipfSampler> zipf;
  Rng rng{33};
  std::uint32_t scheme = 0;
  std::size_t publishers = 0;
  std::size_t burst = 0;

  void round() {
    const auto pub = net::HostIndex(rng.index(publishers));
    for (std::size_t b = 0; b < burst; ++b) {
      auto e = pool[zipf->sample(rng) - 1];
      sys->publish(pub, scheme, std::move(e));
    }
    sim->run();
  }
};

std::unique_ptr<BenchRun> make_bench(const Params& p, bool fast,
                                     trace::Tracer* tracer,
                                     double sample_rate) {
  auto b = std::make_unique<BenchRun>();
  net::KingLikeTopology::Params tp;
  tp.hosts = p.nodes;
  tp.seed = 9;
  b->topo = std::make_unique<net::KingLikeTopology>(tp);
  b->sim = std::make_unique<sim::Simulator>();
  b->net = std::make_unique<net::Network>(*b->sim, *b->topo);
  chord::ChordNet::Params cp;
  cp.seed = 9;
  b->chord = std::make_unique<chord::ChordNet>(*b->net, cp);

  core::HyperSubSystem::Config sc;
  sc.bootstrap = core::BootstrapMode::kOracle;
  sc.route_cache = fast;
  sc.batch_forwarding = fast;
  sc.trace_sample_rate = sample_rate;
  b->sys = std::make_unique<core::HyperSubSystem>(*b->chord, sc);
  if (tracer != nullptr) b->sys->set_tracer(tracer);
  b->sys->set_delivery_sink(b->sink);

  workload::WorkloadGenerator gen(workload::table1_spec(), 21);
  core::SchemeOptions opt;
  opt.zone_cfg = {1, 20};
  b->scheme = b->sys->add_scheme(gen.scheme(), opt);
  for (net::HostIndex h = 0; h < p.nodes; ++h) {
    for (std::size_t k = 0; k < p.subs_per_node; ++k) {
      b->sys->subscribe(h, b->scheme, gen.make_subscription());
    }
  }
  b->sim->run();

  // Zipf-hot feed: events drawn by rank from a fixed pool (repeated
  // rendezvous zones), published in bursts from a small publisher set.
  for (std::size_t i = 0; i < p.pool; ++i) {
    b->pool.push_back(gen.make_event());
  }
  b->zipf = std::make_unique<ZipfSampler>(p.pool, p.zipf_skew);
  b->publishers = p.publishers;
  b->burst = p.burst;

  // Warm-up: populate the caches, then reset every counter (cached routes
  // stay warm — steady-state measurement, as with any cache bench).
  for (std::size_t r = 0; r < p.warm_rounds; ++r) b->round();
  b->sys->finalize_events();
  b->sys->reset_metrics();
  b->net->reset_traffic();
  if (tracer != nullptr) tracer->reset();
  return b;
}

RunResult run_config(const Params& p, bool fast,
                     trace::Tracer* tracer = nullptr,
                     double sample_rate = 1.0) {
  auto b = make_bench(p, fast, tracer, sample_rate);
  const auto wall0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < p.rounds; ++r) b->round();
  b->sys->finalize_events();
  const auto wall1 = std::chrono::steady_clock::now();

  RunResult res;
  res.snap = metrics::snapshot(*b->sys);
  res.mean_publish_hops = res.snap.mean_max_hops;
  res.mean_header_bytes = res.snap.mean_header_bytes;
  res.mean_bandwidth_kb = res.snap.mean_bandwidth_kb;
  res.deliveries = b->sink.count();
  res.wall_ns_per_event =
      double(std::chrono::duration_cast<std::chrono::nanoseconds>(wall1 -
                                                                  wall0)
                 .count()) /
      double(p.rounds * p.burst);
  return res;
}

/// Tracing overhead on the publish path, measured where a CI gate can
/// trust it: in-process, interleaved repetitions, medians. `base` is the
/// detached tracer (one null-pointer test per instrumentation site —
/// the contract's "disabled" cost); `attached` keeps a tracer attached at
/// sample rate 0, so every guard runs but no span is recorded.
struct TraceOverhead {
  double base_ns_per_event = 0.0;
  double attached_ns_per_event = 0.0;
  double overhead = 0.0;          ///< geometric mean of the orders, - 1
  double base_first = 0.0;        ///< median ratio - 1, base built first
  double attached_first = 0.0;    ///< median ratio - 1, attached first
  std::size_t sampled_spans = 0;  ///< spans from the rate-0.25 run
  std::size_t complete_traces = 0;  ///< fully-delivered event trees
  std::size_t event_traces = 0;
};

/// Interleaved timed blocks of two live systems; returns the median
/// attached/base ratio over the pairs and adds each side's wall time to
/// its total.
double median_ratio(BenchRun& base, BenchRun& attached, std::size_t blocks,
                    std::size_t block_rounds, double& base_total,
                    double& attached_total) {
  const auto timed_block = [&](BenchRun& b) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < block_rounds; ++r) b.round();
    b.sys->finalize_events();
    const auto t1 = std::chrono::steady_clock::now();
    return double(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
  };
  // One throwaway pair absorbs cold caches on the measured path.
  timed_block(base);
  timed_block(attached);

  std::vector<double> ratio;
  for (std::size_t i = 0; i + 1 < blocks; ++i) {
    double b, a;
    if (i % 2 == 0) {
      b = timed_block(base);
      a = timed_block(attached);
    } else {
      a = timed_block(attached);
      b = timed_block(base);
    }
    base_total += b;
    attached_total += a;
    ratio.push_back(b > 0.0 ? a / b : 1.0);
  }
  std::sort(ratio.begin(), ratio.end());
  return ratio[ratio.size() / 2];
}

TraceOverhead measure_trace_overhead(const Params& p) {
  // Both variants execute an identical deterministic workload, so any
  // wall-time difference is the guard cost under test plus host noise —
  // and on a shared machine the noise arrives in multi-second load
  // swings that swamp any comparison of *separate* runs. So: build both
  // systems, keep them alive together, and interleave small timed blocks
  // (base, attached, base, attached ... milliseconds apart) — a load
  // swing then hits both sides of each pair equally. Block i performs
  // identical work in both systems (same feed seed), so each pair yields
  // one attached/base ratio. Block order alternates to cancel any
  // residual first-runner advantage.
  //
  // Build order is a bias of its own: with no tracer on either side, the
  // system built second ran a few percent slower or faster depending on
  // the order (heap placement). So the pair is built in both orders, and
  // the overhead is the geometric mean of the two medians.
  Params op = p;
  // Many pairs: the median's standard error shrinks with sqrt(pairs), and
  // the measured phase is trivial next to the per-system setup cost.
  op.rounds = p.rounds * 32;
  const std::size_t kBlockRounds = 10;
  const std::size_t blocks = op.rounds / kBlockRounds;

  TraceOverhead o;
  double base_total = 0.0, attached_total = 0.0;
  double median[2];
  for (const bool base_first : {true, false}) {
    trace::Tracer t;  // outlives the system it is attached to
    std::unique_ptr<BenchRun> base, attached;
    if (base_first) base = make_bench(op, false, nullptr, 1.0);
    attached = make_bench(op, false, &t, 0.0);
    if (!base_first) base = make_bench(op, false, nullptr, 1.0);
    median[base_first ? 0 : 1] = median_ratio(
        *base, *attached, blocks, kBlockRounds, base_total, attached_total);
  }
  const double events = double(2 * (blocks - 1) * kBlockRounds * op.burst);
  o.base_ns_per_event = base_total / events;
  o.attached_ns_per_event = attached_total / events;
  o.base_first = median[0] - 1.0;
  o.attached_first = median[1] - 1.0;
  o.overhead = std::sqrt(median[0] * median[1]) - 1.0;
  // Sampled recording must actually produce complete causal trees.
  trace::Tracer st;
  run_config(p, false, &st, 0.25);
  const trace::TraceSummary s = trace::summarize(st);
  o.sampled_spans = st.span_count();
  o.event_traces = s.event_traces;
  o.complete_traces = s.complete_traces;
  return o;
}

bool emit_json(const std::string& path, const Params& p,
               const RunResult& off, const RunResult& on,
               const TraceOverhead& to) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const auto& cc = on.snap.cache;
  const double hit_rate =
      cc.hits + cc.misses > 0
          ? double(cc.hits) / double(cc.hits + cc.misses)
          : 0.0;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_route\",\n");
  hypersub::bench::write_host_json(f);
  std::fprintf(f, "  \"workload\": \"table1 zipf pool\",\n");
  std::fprintf(f,
               "  \"nodes\": %zu, \"subs_per_node\": %zu, \"pool\": %zu, "
               "\"zipf_skew\": %.2f,\n",
               p.nodes, p.subs_per_node, p.pool, p.zipf_skew);
  std::fprintf(f, "  \"events\": %zu, \"burst\": %zu,\n", p.rounds * p.burst,
               p.burst);
  std::fprintf(f, "  \"cache_hit_rate\": %.4f,\n", hit_rate);
  std::fprintf(f, "  \"configs\": [\n");
  const struct {
    const char* name;
    const RunResult* r;
  } rows[] = {{"cache_off", &off}, {"cache_on", &on}};
  for (std::size_t i = 0; i < 2; ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"mean_publish_hops\": %.4f, "
                 "\"mean_header_bytes\": %.2f, \"mean_bandwidth_kb\": %.4f, "
                 "\"deliveries\": %llu,\n     \"snapshot\": %s}%s\n",
                 rows[i].name, rows[i].r->mean_publish_hops,
                 rows[i].r->mean_header_bytes, rows[i].r->mean_bandwidth_kb,
                 (unsigned long long)rows[i].r->deliveries,
                 rows[i].r->snap.to_json().c_str(), i == 0 ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(
      f,
      "  \"trace\": {\"base_ns_per_event\": %.1f, "
      "\"attached_ns_per_event\": %.1f, \"overhead\": %.4f,\n"
      "            \"overhead_base_first\": %.4f, "
      "\"overhead_attached_first\": %.4f,\n"
      "            \"sampled_spans\": %zu, \"event_traces\": %zu, "
      "\"complete_traces\": %zu}\n",
      to.base_ns_per_event, to.attached_ns_per_event, to.overhead,
      to.base_first, to.attached_first, to.sampled_spans, to.event_traces,
      to.complete_traces);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_route.json";
  Params p;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      p.nodes = 150;
      p.subs_per_node = 4;
      p.warm_rounds = 15;
      p.rounds = 40;
    } else if (std::strcmp(argv[i], "--full") == 0) {
      p.nodes = 1000;
      p.subs_per_node = 10;
      p.warm_rounds = 60;
      p.rounds = 200;
    }
  }

  std::printf("publish fast lane (%zu nodes, %zu events, pool %zu, "
              "zipf %.2f)\n",
              p.nodes, p.rounds * p.burst, p.pool, p.zipf_skew);
  const RunResult off = run_config(p, false);
  const RunResult on = run_config(p, true);

  std::printf("%12s %18s %18s %16s %12s\n", "config", "mean publish hops",
              "header bytes/ev", "bandwidth KB/ev", "deliveries");
  std::printf("%12s %18.2f %18.1f %16.2f %12llu\n", "cache_off",
              off.mean_publish_hops, off.mean_header_bytes,
              off.mean_bandwidth_kb, (unsigned long long)off.deliveries);
  std::printf("%12s %18.2f %18.1f %16.2f %12llu\n", "cache_on",
              on.mean_publish_hops, on.mean_header_bytes,
              on.mean_bandwidth_kb, (unsigned long long)on.deliveries);
  const auto& cc = on.snap.cache;
  std::printf("cache: %llu hits / %llu misses, %llu corrections; "
              "batching: %llu chunks in %llu frames, %llu header bytes "
              "saved\n",
              (unsigned long long)cc.hits, (unsigned long long)cc.misses,
              (unsigned long long)cc.stale_corrections,
              (unsigned long long)on.snap.batching.chunks,
              (unsigned long long)on.snap.batching.frames,
              (unsigned long long)on.snap.batching.header_bytes_saved);

  // The fast lane must not change what gets delivered.
  if (off.deliveries != on.deliveries) {
    std::fprintf(stderr,
                 "FAIL: delivery counts diverge (off=%llu on=%llu)\n",
                 (unsigned long long)off.deliveries,
                 (unsigned long long)on.deliveries);
    return 1;
  }

  const TraceOverhead to = measure_trace_overhead(p);
  std::printf("trace: detached %.0f ns/ev, attached(rate 0) %.0f ns/ev "
              "(%+.2f%%: %+.2f%% base built first, %+.2f%% attached built "
              "first); sampled rate 0.25: %zu spans, %zu/%zu traces "
              "complete\n",
              to.base_ns_per_event, to.attached_ns_per_event,
              100.0 * to.overhead, 100.0 * to.base_first,
              100.0 * to.attached_first, to.sampled_spans,
              to.complete_traces, to.event_traces);

  if (!emit_json(json_path, p, off, on, to)) return 1;
  return 0;
}
