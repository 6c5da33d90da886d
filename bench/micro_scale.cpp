// Micro-benchmark: scale-out — how far one box can push the setup path
// (overlay construction + subscription installation) and what the steady
// state costs once it is up.
//
// Sweeps (nodes, subs_per_node) points up to 1M subscriptions / 10k nodes
// (--full) and writes BENCH_scale.json (override with --json=PATH): per
// point the setup wall-clock, the process peak RSS, and the measured-phase
// engine events/sec, plus a snapshot hash so successive PRs can see any
// behavioral drift. --quick runs only the 100k-subscription point (the CI
// smoke + the point the sanity gate compares against the committed
// pre-arena baseline in BENCH_scale_baseline.json).
//
// The default path is the scale-out stack: oracle bulk installation
// (HyperSubSystem::bulk_subscribe), streamed per-event metrics, and the
// counting delivery sink. --legacy runs the simulated per-subscription
// install cascade instead (the pre-arena setup path; the committed
// baseline was produced this way). Both draw the workload in the same
// order from the same seeds, so zone contents are equivalent.
//
// Points run smallest-first because peak RSS is a process-wide high-water
// mark: each point's reported peak is "after this point", so only the
// largest point's value is a true per-point peak. The gated quick run has
// exactly one point for this reason.
//
// Each point also records the zone-tree memory breakdown (materialized
// zones, saturated-zone runs, key indexes) separately from subscription
// storage; --mem-breakdown prints it. The json keeps the chain_records /
// implicit_zones keys of earlier files (the sanity gate reads them): both
// now count saturated zones, and saturated_bytes is their runs. Each
// point's "bulk" object is HyperSubSystem::bulk_stats(): the set-up
// counters, which depend only on the workload (the sanity gate compares
// them with the committed file), and the per-phase wall seconds.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "chord/chord_net.hpp"
#include "core/hypersub_system.hpp"
#include "metrics/snapshot.hpp"
#include "net/topology.hpp"
#include "workload/zipf_workload.hpp"

namespace {

using namespace hypersub;
using Clock = std::chrono::steady_clock;

double secs_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(b - a)
      .count();
}

std::uint64_t fnv1a(const std::string& s,
                    std::uint64_t h = 1469598103934665603ull) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct PointResult {
  std::size_t nodes = 0;
  std::size_t subs_per_node = 0;
  std::size_t subs = 0;
  bool legacy = false;
  double setup_seconds = 0.0;
  std::size_t peak_rss_bytes = 0;
  // Zone-tree memory breakdown, summed over all nodes after setup: the
  // zone tree (zone_tree_bytes) separated from subscription storage
  // (sub_bytes) so the sanity gate can compare it with the frozen
  // all-materialized baseline.
  std::size_t materialized_zones = 0;
  std::size_t chain_records = 0;
  std::size_t implicit_zones = 0;
  std::size_t zone_materialized_bytes = 0;
  std::size_t saturated_bytes = 0;
  std::size_t zone_index_bytes = 0;
  std::size_t zone_tree_bytes = 0;
  std::size_t sub_bytes = 0;
  core::HyperSubSystem::BulkStats bulk;  // zeros on the legacy path
  std::uint64_t executed = 0;
  double events_per_sec = 0.0;
  std::uint64_t deliveries = 0;
  std::uint64_t snapshot_hash = 0;
};

struct RunOpts {
  std::size_t events = 2000;
  double mean_interarrival_ms = 0.5;
  unsigned setup_threads = 1;
  bool legacy = false;     ///< simulated install cascade (pre-arena path)
};

PointResult run_point(std::size_t nodes, std::size_t subs_per_node,
                      const RunOpts& o) {
  const auto t0 = Clock::now();
  net::KingLikeTopology::Params tp;
  tp.hosts = nodes;
  tp.seed = 11;
  net::KingLikeTopology topo(tp);
  sim::Simulator sim;
  net::Network net(sim, topo);
  chord::ChordNet::Params cp;
  cp.seed = 11;
  chord::ChordNet chord(net, cp);
  core::HyperSubSystem::Config sc;
  sc.bootstrap = core::BootstrapMode::kOracle;
  sc.build_threads = o.setup_threads;
  sc.stream_event_metrics = !o.legacy;  // big runs never materialize records
  core::HyperSubSystem sys(chord, sc);
  core::CountingDeliverySink sink;
  sys.set_delivery_sink(sink);

  workload::WorkloadGenerator gen(workload::table1_spec(), 23);
  core::SchemeOptions so;
  so.zone_cfg = lph::ZoneSystem::Config{1, 20};
  const auto scheme = sys.add_scheme(gen.scheme(), so);
  if (o.legacy) {
    for (net::HostIndex h = 0; h < nodes; ++h) {
      for (std::size_t k = 0; k < subs_per_node; ++k) {
        sys.subscribe(h, scheme, gen.make_subscription());
      }
    }
  } else {
    // Same draw order as the legacy loop — zone contents are equivalent,
    // installed directly through the oracle instead of an install storm.
    std::vector<core::HyperSubSystem::BulkSub> batch;
    batch.reserve(nodes * subs_per_node);
    for (net::HostIndex h = 0; h < nodes; ++h) {
      for (std::size_t k = 0; k < subs_per_node; ++k) {
        batch.push_back({h, gen.make_subscription()});
      }
    }
    sys.bulk_subscribe(scheme, std::move(batch), o.setup_threads);
  }
  sim.run();  // drain the install traffic: setup ends here
  const auto t1 = Clock::now();
  core::HyperSubNode::ZoneMemoryBreakdown mb{};
  for (net::HostIndex h = 0; h < nodes; ++h) {
    const auto b = sys.node(h).memory_breakdown();
    mb.materialized_zones += b.materialized_zones;
    mb.chain_records += b.chain_records;
    mb.implicit_zones += b.implicit_zones;
    mb.zone_bytes += b.zone_bytes;
    mb.chain_bytes += b.chain_bytes;
    mb.key_index_bytes += b.key_index_bytes;
    mb.sub_bytes += b.sub_bytes;
  }
  sys.reset_metrics();

  Rng rng(29);
  double t = 0.0;
  for (std::size_t i = 0; i < o.events; ++i) {
    t += rng.exponential(o.mean_interarrival_ms);
    const auto pub = net::HostIndex(rng.index(nodes));
    sim.schedule_at(t, [&sys, pub, scheme, ev = gen.make_event()] {
      sys.publish(pub, scheme, ev);
    });
  }
  const std::uint64_t before = sim.executed();
  const auto t2 = Clock::now();
  sim.run();
  const auto t3 = Clock::now();
  sys.finalize_events();

  PointResult r;
  r.nodes = nodes;
  r.subs_per_node = subs_per_node;
  r.subs = nodes * subs_per_node;
  r.legacy = o.legacy;
  r.setup_seconds = secs_between(t0, t1);
  r.peak_rss_bytes = bench::peak_rss_bytes();
  r.materialized_zones = mb.materialized_zones;
  r.chain_records = mb.chain_records;
  r.implicit_zones = mb.implicit_zones;
  r.zone_materialized_bytes = mb.zone_bytes;
  r.saturated_bytes = mb.chain_bytes;
  r.zone_index_bytes = mb.key_index_bytes;
  r.zone_tree_bytes = mb.zone_tree_bytes();
  r.sub_bytes = mb.sub_bytes;
  r.bulk = sys.bulk_stats();
  r.executed = sim.executed() - before;
  r.events_per_sec = double(r.executed) / secs_between(t2, t3);
  r.deliveries = sink.count();
  r.snapshot_hash = fnv1a(std::to_string(sink.count()),
                          fnv1a(metrics::snapshot(sys).to_json()));
  return r;
}

void print_point(const char* tag, const PointResult& r) {
  std::printf(
      "[micro_scale] %s %zu nodes x %zu subs (%zu total, %s): "
      "setup %.2f s, peak RSS %.1f MiB, %.0f events/sec, "
      "%llu deliveries, hash %016llx\n",
      tag, r.nodes, r.subs_per_node, r.subs,
      r.legacy ? "legacy" : "fast", r.setup_seconds,
      double(r.peak_rss_bytes) / (1024.0 * 1024.0), r.events_per_sec,
      (unsigned long long)r.deliveries, (unsigned long long)r.snapshot_hash);
}

void print_mem_breakdown(const PointResult& r) {
  const double mib = 1024.0 * 1024.0;
  std::printf(
      "[micro_scale]   zone tree: %.1f MiB "
      "(materialized %zu zones = %.1f MiB, %zu saturated zones "
      "= %.1f MiB, key index %.1f MiB); subscriptions: %.1f MiB\n",
      double(r.zone_tree_bytes) / mib, r.materialized_zones,
      double(r.zone_materialized_bytes) / mib, r.implicit_zones,
      double(r.saturated_bytes) / mib,
      double(r.zone_index_bytes) / mib, double(r.sub_bytes) / mib);
  const auto& b = r.bulk;
  std::printf(
      "[micro_scale]   bulk setup: plan %.3f s, installs %.3f s "
      "(%llu indexes built), cascade %.3f s (%llu zones one by one, %llu "
      "saturated runs, %llu children through clip)\n",
      b.plan_s, b.install_s, (unsigned long long)b.indexes_built,
      b.cascade_s, (unsigned long long)b.zones_cascaded,
      (unsigned long long)b.children_fast,
      (unsigned long long)b.children_clipped);
}

void print_usage(FILE* out) {
  std::fprintf(
      out,
      "usage: micro_scale [--quick | --full] [--legacy] [--mem-breakdown]\n"
      "                   [--nodes=N] [--subs-per-node=N] [--events=N]\n"
      "                   [--setup-threads=N] [--json=PATH]\n"
      "  (default)          the 6k and 100k points\n"
      "  --quick            the gated 100k point, 1000 events\n"
      "  --full             the 6k, 100k and 1M points\n"
      "  --legacy           simulated per-subscription installs\n"
      "  --mem-breakdown    print each point's zone-tree bytes\n"
      "  --nodes, --subs-per-node\n"
      "                     one custom point (defaults 2000 and 50)\n"
      "  --events           events published in the measured phase\n"
      "  --setup-threads    bulk set-up threads\n"
      "  --json             output file (default BENCH_scale.json)\n");
}

}  // namespace

int main(int argc, char** argv) {
  struct Point {
    std::size_t nodes, subs_per_node;
  };
  std::vector<Point> points{{600, 10}, {2000, 50}};
  RunOpts opts;
  std::string json_path = "BENCH_scale.json";
  bool quick = false;
  bool mem_breakdown = false;
  std::size_t nodes_override = 0, spn_override = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      points = {{2000, 50}};  // the gated 100k-subscription point
      opts.events = 1000;
    } else if (std::strcmp(argv[i], "--full") == 0) {
      points = {{600, 10}, {2000, 50}, {10000, 100}};
    } else if (std::strcmp(argv[i], "--legacy") == 0) {
      opts.legacy = true;
    } else if (std::strcmp(argv[i], "--mem-breakdown") == 0) {
      mem_breakdown = true;
    } else if (std::strncmp(argv[i], "--nodes=", 8) == 0) {
      nodes_override = std::size_t(std::atoll(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--subs-per-node=", 16) == 0) {
      spn_override = std::size_t(std::atoll(argv[i] + 16));
    } else if (std::strncmp(argv[i], "--events=", 9) == 0) {
      opts.events = std::size_t(std::atoll(argv[i] + 9));
    } else if (std::strncmp(argv[i], "--setup-threads=", 16) == 0) {
      opts.setup_threads = unsigned(std::atoi(argv[i] + 16));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      print_usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "micro_scale: unknown argument '%s'\n", argv[i]);
      print_usage(stderr);
      return 2;
    }
  }
  if (nodes_override || spn_override) {
    points = {{nodes_override ? nodes_override : 2000,
               spn_override ? spn_override : 50}};
  }

  std::vector<PointResult> results;
  for (const auto& pt : points) {
    results.push_back(run_point(pt.nodes, pt.subs_per_node, opts));
    print_point("point", results.back());
    if (mem_breakdown) print_mem_breakdown(results.back());
  }

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) {
    std::perror("fopen");
    return 1;
  }
  std::fprintf(f, "{\n \"bench\": \"micro_scale\",\n");
  hypersub::bench::write_host_json(f);
  std::fprintf(f, " \"quick\": %s,\n \"events\": %zu,\n \"mode\": \"%s\",\n",
               quick ? "true" : "false", opts.events,
               opts.legacy ? "legacy" : "fast");
  std::fprintf(f, " \"points\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PointResult& r = results[i];
    std::fprintf(f,
                 "  {\"nodes\": %zu, \"subs_per_node\": %zu, \"subs\": %zu, "
                 "\"setup_seconds\": %.3f, "
                 "\"peak_rss_bytes\": %zu, "
                 "\"materialized_zones\": %zu, \"chain_records\": %zu, "
                 "\"implicit_zones\": %zu, "
                 "\"zone_materialized_bytes\": %zu, "
                 "\"saturated_bytes\": %zu, \"zone_index_bytes\": %zu, "
                 "\"zone_tree_bytes\": %zu, \"sub_bytes\": %zu, "
                 "\"events_per_sec\": %.0f, "
                 "\"deliveries\": %llu, \"snapshot_hash\": \"%016llx\", "
                 "\"bulk\": {\"zones_cascaded\": %llu, "
                 "\"children_fast\": %llu, \"children_clipped\": %llu, "
                 "\"indexes_built\": %llu, \"plan_s\": %.3f, "
                 "\"install_s\": %.3f, \"cascade_s\": %.3f}}%s\n",
                 r.nodes, r.subs_per_node, r.subs, r.setup_seconds,
                 r.peak_rss_bytes, r.materialized_zones, r.chain_records,
                 r.implicit_zones, r.zone_materialized_bytes,
                 r.saturated_bytes, r.zone_index_bytes, r.zone_tree_bytes,
                 r.sub_bytes, r.events_per_sec,
                 (unsigned long long)r.deliveries,
                 (unsigned long long)r.snapshot_hash,
                 (unsigned long long)r.bulk.zones_cascaded,
                 (unsigned long long)r.bulk.children_fast,
                 (unsigned long long)r.bulk.children_clipped,
                 (unsigned long long)r.bulk.indexes_built, r.bulk.plan_s,
                 r.bulk.install_s, r.bulk.cascade_s,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, " ]\n}\n");
  std::fclose(f);
  std::printf("[micro_scale] wrote %s\n", json_path.c_str());
  return 0;
}
