#pragma once
// Turn-key experiment runner: builds the full stack (topology → network →
// Chord → HyperSub), installs the workload, publishes events, and returns
// the metrics the paper's figures plot. Each run is deterministic in its
// config; independent runs can execute in parallel threads.

#include <cstdint>
#include <vector>

#include "core/hypersub_system.hpp"
#include "core/load_balancer.hpp"
#include "trace/tracer.hpp"
#include "metrics/event_metrics.hpp"
#include "metrics/fastlane_metrics.hpp"
#include "metrics/node_metrics.hpp"
#include "workload/scheme_factory.hpp"

namespace hypersub::runner {

/// Everything one simulation run depends on. Defaults reproduce the
/// paper's base configuration at reduced event count (pass events=20000
/// for the full-scale runs).
struct ExperimentConfig {
  // network
  std::size_t nodes = 1740;
  double target_mean_rtt_ms = 180.0;
  bool pns = true;
  // zone geometry
  int base_bits = 1;    ///< base 2 ("Base 2, level 20")
  int code_bits = 20;   ///< bits of the identifier used for zone codes
  bool rotation = true;
  std::vector<std::vector<std::size_t>> subschemes;  ///< §3.5; empty = off
  // pub/sub system — passed through verbatim (replicas, reliability, route
  // cache, batching, cover aggregation, streaming metrics, transfer
  // knobs...). The runner only overrides bootstrap (it always
  // oracle-builds, with `setup_threads` workers) and stream_event_metrics
  // plumbing it already owns. The former mirrored fields (route_cache,
  // batch_forwarding, cover_aggregation, stream_metrics,
  // trace_sample_rate) live here now — see DESIGN.md, "Runner
  // configuration".
  core::HyperSubSystem::Config system;
  // load balancing
  bool load_balancing = false;
  core::LoadBalancer::Config lb{/*period_ms=*/30000.0, /*delta=*/0.1,
                                /*probe_level=*/1, /*max_acceptors=*/4,
                                /*min_load=*/8, /*reply_timeout_ms=*/1500.0};
  std::size_t lb_warm_rounds = 2;  ///< static pre-adjustment rounds
  // workload
  workload::WorkloadSpec workload = workload::table1_spec();
  std::size_t subs_per_node = 10;
  std::size_t events = 4000;
  double mean_interarrival_ms = 100.0;
  std::size_t hot_event_pool = 0;  ///< >0: draw events Zipf-ranked from a pool
  double zipf_skew = 0.95;         ///< rank skew of the hot pool
  std::size_t publishers = 0;      ///< >0: restrict the feed to this many nodes
  // tracing (observability; off unless a tracer is supplied — the sample
  // rate is system.trace_sample_rate)
  trace::Tracer* tracer = nullptr;   ///< span recorder for the whole stack
  // setup fast path (million-subscription scale-out)
  /// Install subscriptions through HyperSubSystem::bulk_subscribe (direct
  /// oracle installation + one piece fixpoint) instead of simulating the
  /// per-subscription install cascade. Zone contents are equivalent;
  /// per-zone insertion order follows batch order instead of
  /// message-arrival order.
  bool fast_setup = false;
  /// Worker threads for oracle overlay construction and bulk installation
  /// (results are independent of this count).
  unsigned setup_threads = 1;
  // misc
  std::uint64_t seed = 42;
};

/// Metrics of one run.
struct ExperimentResult {
  metrics::EventMetrics events;
  metrics::NodeMetrics nodes;
  double mean_rtt_ms = 0.0;
  std::size_t total_subs = 0;
  std::uint64_t migrated = 0;
  std::uint64_t deliveries = 0;
  double avg_pct_matched = 0.0;
  metrics::RouteCacheCounters cache;  ///< route-cache activity (fast lane)
  metrics::BatchCounters batching;    ///< frame coalescing (fast lane)
};

/// Run one experiment to completion.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

/// Run several independent experiments on worker threads (one Simulator
/// per run; no shared mutable state). Results are in config order.
std::vector<ExperimentResult> run_experiments_parallel(
    const std::vector<ExperimentConfig>& configs);

/// Short human-readable configuration label, e.g. "Base 2,level 20,no LB".
std::string config_label(const ExperimentConfig& cfg);

}  // namespace hypersub::runner
