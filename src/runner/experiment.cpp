#include "runner/experiment.hpp"

#include <atomic>
#include <optional>
#include <sstream>
#include <thread>

#include "chord/chord_net.hpp"
#include "common/zipf.hpp"
#include "core/hypersub_system.hpp"
#include "net/topology.hpp"
#include "workload/zipf_workload.hpp"

namespace hypersub::runner {

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  // --- substrate -----------------------------------------------------------
  net::KingLikeTopology::Params tp;
  tp.hosts = cfg.nodes;
  tp.target_mean_rtt_ms = cfg.target_mean_rtt_ms;
  tp.seed = cfg.seed;
  net::KingLikeTopology topo(tp);

  sim::Simulator simulator;
  net::Network network(simulator, topo);

  chord::ChordNet::Params cp;
  cp.pns = cfg.pns;
  cp.seed = cfg.seed + 1;
  chord::ChordNet chord(network, cp);

  // --- pub/sub system --------------------------------------------------------
  // The embedded system config passes through verbatim; the runner owns
  // only the bootstrap (experiments measure the post-stabilization system,
  // so the overlay is oracle-built by the system constructor).
  core::HyperSubSystem::Config sc = cfg.system;
  sc.bootstrap = core::BootstrapMode::kOracle;
  sc.build_threads = cfg.setup_threads;
  core::HyperSubSystem sys(chord, sc);
  if (cfg.tracer) sys.set_tracer(cfg.tracer);
  // Large runs only need delivery counts, not the full log.
  core::CountingDeliverySink sink;
  sys.set_delivery_sink(sink);

  workload::WorkloadGenerator gen(cfg.workload, cfg.seed + 2);
  core::SchemeOptions so;
  so.zone_cfg = lph::ZoneSystem::Config{cfg.base_bits, cfg.code_bits};
  so.rotate = cfg.rotation;
  so.subschemes = cfg.subschemes;
  const std::uint32_t scheme = sys.add_scheme(gen.scheme(), so);

  // --- subscription installation (paper: every node subscribes) -------------
  if (cfg.fast_setup) {
    // Oracle bulk installation: same workload draw order, no simulated
    // install storm.
    std::vector<core::HyperSubSystem::BulkSub> batch;
    batch.reserve(cfg.nodes * cfg.subs_per_node);
    for (net::HostIndex h = 0; h < cfg.nodes; ++h) {
      for (std::size_t k = 0; k < cfg.subs_per_node; ++k) {
        batch.push_back({h, gen.make_subscription()});
      }
    }
    sys.bulk_subscribe(scheme, std::move(batch), cfg.setup_threads);
  } else {
    for (net::HostIndex h = 0; h < cfg.nodes; ++h) {
      for (std::size_t k = 0; k < cfg.subs_per_node; ++k) {
        sys.subscribe(h, scheme, gen.make_subscription());
      }
    }
  }
  simulator.run();  // drain installs + summary-filter piece propagation

  // --- load balancing --------------------------------------------------------
  std::unique_ptr<core::LoadBalancer> lb;
  if (cfg.load_balancing) {
    lb = std::make_unique<core::LoadBalancer>(sys, cfg.lb);
    for (std::size_t r = 0; r < cfg.lb_warm_rounds; ++r) lb->run_round();
  }

  // Measurement starts after stabilization, as in the paper. Warm-up spans
  // (the install storm) are dropped with the other warm-up metrics so the
  // span budget is spent on the measured event phase.
  network.reset_traffic();
  sys.reset_metrics();
  if (cfg.tracer) cfg.tracer->reset();
  if (lb) lb->start();

  // --- event phase ------------------------------------------------------------
  // hot_event_pool > 0 switches the feed from fresh uniform events to a
  // Zipf-ranked draw over a fixed pool (repeated rendezvous zones — the
  // regime the publish fast lane targets).
  std::vector<pubsub::Event> pool;
  for (std::size_t i = 0; i < cfg.hot_event_pool; ++i) {
    pool.push_back(gen.make_event());
  }
  std::optional<ZipfSampler> zipf;
  if (!pool.empty()) zipf.emplace(pool.size(), cfg.zipf_skew);

  Rng ev_rng(cfg.seed + 3);
  double t = 0.0;
  for (std::size_t i = 0; i < cfg.events; ++i) {
    t += ev_rng.exponential(cfg.mean_interarrival_ms);
    const net::HostIndex publisher =
        cfg.publishers > 0 ? net::HostIndex(ev_rng.index(cfg.publishers))
                           : net::HostIndex(ev_rng.index(cfg.nodes));
    pubsub::Event e = pool.empty() ? gen.make_event()
                                   : pool[zipf->sample(ev_rng) - 1];
    // `t` is a delay relative to the current (post-stabilization) time; the
    // whole schedule is laid out before run() resumes.
    simulator.schedule(t, [&sys, scheme, publisher, e]() mutable {
      sys.publish(publisher, scheme, std::move(e));
    });
  }
  // Run to the last publication, stop the periodic balancer (its timers
  // would keep the queue alive forever), then drain the delivery tail.
  simulator.run_until(simulator.now() + t);
  if (lb) lb->stop();
  simulator.run();
  sys.finalize_events();

  // --- collect -----------------------------------------------------------------
  ExperimentResult r;
  r.events = sys.event_metrics();
  r.nodes = metrics::snapshot_nodes(network, sys.node_loads());
  r.mean_rtt_ms = topo.mean_rtt(20000, cfg.seed + 4);
  r.total_subs = sys.total_subscriptions();
  r.migrated = lb ? lb->migrated_count() : 0;
  r.deliveries = sink.count();
  r.avg_pct_matched = r.events.mean_pct_matched();
  r.cache = sys.route_cache_counters();
  r.batching = sys.batch_counters();
  return r;
}

std::vector<ExperimentResult> run_experiments_parallel(
    const std::vector<ExperimentConfig>& configs) {
  std::vector<ExperimentResult> results(configs.size());
  std::atomic<std::size_t> next{0};
  const std::size_t workers =
      std::min<std::size_t>(configs.size(),
                            std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&configs, &results, &next] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= configs.size()) return;
        results[i] = run_experiment(configs[i]);
      }
    });
  }
  for (auto& th : pool) th.join();
  return results;
}

std::string config_label(const ExperimentConfig& cfg) {
  std::ostringstream os;
  os << "Base " << (1 << cfg.base_bits) << ",level "
     << cfg.code_bits / cfg.base_bits << ','
     << (cfg.load_balancing ? "LB" : "no LB");
  if (cfg.system.route_cache) os << ",cache";
  if (cfg.system.batch_forwarding) os << ",batch";
  if (cfg.system.cover_aggregation) os << ",cover";
  return os.str();
}

}  // namespace hypersub::runner
