// Determinism regression: two runs with the same seed and configuration
// must be bit-identical — the same metrics snapshot JSON and the same span
// log, span for span. The simulator's FIFO tie-break, the counter-based
// trace ids, and the hash-based sampling decision are all designed for
// this; any wall-clock, pointer-order, or container-order leak into the
// simulation breaks it and shows up here.
//
// Each scenario's output is also pinned to literal FNV-1a hashes of its
// snapshot JSON and its JSONL span log, so a change that alters behaviour
// fails here even when it alters both twins alike. Regenerate them only for
// an intended behaviour change (a failing EXPECT prints the new values).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "chord/chord_net.hpp"
#include "common/wire.hpp"
#include "core/hypersub_system.hpp"
#include "core/load_balancer.hpp"
#include "metrics/fastlane_metrics.hpp"
#include "metrics/reliability_metrics.hpp"
#include "metrics/snapshot.hpp"
#include "net/topology.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "workload/scheme_factory.hpp"
#include "workload/zipf_workload.hpp"

namespace hypersub {
namespace {

struct RunOutput {
  std::string metrics_json;
  std::vector<trace::Span> spans;
  std::string span_jsonl;
  std::uint64_t traces_started = 0;
  std::size_t deliveries = 0;
  metrics::ReliabilityCounters rel;
  metrics::BatchCounters batch;
};

struct RunOpts {
  bool reliable = false;
  std::size_t replicas = 0;
  bool cache = false;
  bool batch = false;
  bool churn = false;
  bool load_balance = false;
  // Covering-based aggregation; subscriptions are drawn from a small pool
  // (instead of all-fresh) so quench/promotion paths actually execute.
  bool cover = false;
  double sample_rate = 1.0;
};

/// One full simulated run: build, subscribe, (optionally churn), publish,
/// finalize; returns everything an identical twin must reproduce exactly.
RunOutput run_once(RunOpts o) {
  constexpr std::size_t kHosts = 40;
  net::KingLikeTopology::Params tp;
  tp.hosts = kHosts;
  tp.seed = 13;
  net::KingLikeTopology topo(tp);
  sim::Simulator sim;
  net::Network net(sim, topo);
  chord::ChordNet::Params cp;
  cp.seed = 13;
  cp.reliable_routing = o.reliable;
  chord::ChordNet chord(net, cp);
  core::HyperSubSystem::Config sc;
  sc.bootstrap = core::BootstrapMode::kOracle;
  sc.reliable_delivery = o.reliable;
  sc.replicas = o.replicas;
  sc.route_cache = o.cache;
  sc.batch_forwarding = o.batch;
  sc.cover_aggregation = o.cover;
  sc.trace_sample_rate = o.sample_rate;
  core::HyperSubSystem sys(chord, sc);
  trace::Tracer tracer;
  sys.set_tracer(&tracer);

  workload::WorkloadGenerator gen(workload::tiny_spec(), 17);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  const auto scheme = sys.add_scheme(gen.scheme(), opt);
  Rng rng(19);
  std::vector<pubsub::Subscription> pool;
  if (o.cover) {
    for (int i = 0; i < 24; ++i) pool.push_back(gen.make_subscription());
  }
  for (int i = 0; i < 120; ++i) {
    sys.subscribe(net::HostIndex(rng.index(kHosts)), scheme,
                  o.cover ? pool[rng.index(pool.size())]
                          : gen.make_subscription());
  }
  sim.run();

  if (o.load_balance) {
    core::LoadBalancer::Config lc;
    lc.delta = 0.1;
    core::LoadBalancer lb(sys, lc);
    lb.run_round();
    sim.run();
  }
  if (o.churn) {
    for (net::HostIndex k = 0; k < kHosts; k += 4) chord.fail(k);
  }

  for (int i = 0; i < 40; ++i) {
    net::HostIndex pub = net::HostIndex(rng.index(kHosts));
    while (!net.alive(pub)) pub = (pub + 1) % kHosts;
    sys.publish(pub, scheme, gen.make_event());
  }
  sim.run();
  sys.finalize_events();

  RunOutput out;
  out.metrics_json = metrics::snapshot(sys).to_json();
  out.spans = tracer.spans();
  std::ostringstream jsonl;
  trace::write_jsonl(tracer, jsonl);
  out.span_jsonl = jsonl.str();
  out.traces_started = tracer.traces_started();
  out.deliveries = sys.deliveries().size();
  out.rel = sys.reliability_counters();
  out.batch = sys.batch_counters();
  return out;
}

/// A protocol join and then a graceful leave, each under a feed of routed
/// subscribes and unsubscribes (every third op removes the oldest live
/// subscription) and publishes, with two replicas: the transfer paths — the
/// old owner's write-behind queue, the warming joiner's deferred writes and
/// parked events, and the leaver's bridge to its successor. A 200 ms
/// handover tick holds the join's commit back until the joiner's
/// predecessor routes to it, so writes reach it while it warms.
struct JoinLeaveOutput {
  RunOutput run;
  std::uint64_t zone_digest = 0;
  std::vector<std::uint8_t> image;  ///< save_state at the end
  core::HyperSubSystem::JoinStats stats;
  bool invariants = false;
};

JoinLeaveOutput run_join_leave() {
  constexpr std::size_t kHosts = 32;
  constexpr net::HostIndex kJoiner = 9;
  constexpr net::HostIndex kLeaver = 21;
  net::KingLikeTopology::Params tp;
  tp.hosts = kHosts;
  tp.seed = 1;
  net::KingLikeTopology topo(tp);
  sim::Simulator sim;
  net::Network net(sim, topo);
  net.kill(kJoiner);  // enters later through the join protocol
  chord::ChordNet::Params cp;
  cp.seed = 1;
  chord::ChordNet chord(net, cp);
  core::HyperSubSystem::Config sc;
  sc.bootstrap = core::BootstrapMode::kOracle;
  sc.replicas = 2;
  sc.handover_tick_ms = 200.0;
  core::HyperSubSystem sys(chord, sc);
  trace::Tracer tracer;
  sys.set_tracer(&tracer);

  workload::WorkloadGenerator gen(workload::tiny_spec(), 101);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  const auto scheme = sys.add_scheme(gen.scheme(), opt);
  Rng rng(23);
  const auto pick_host = [&] {
    net::HostIndex h = net::HostIndex(rng.index(kHosts));
    while (h == kJoiner || h == kLeaver) h = (h + 1) % kHosts;
    return h;
  };
  std::vector<core::SubscriptionHandle> handles;
  std::size_t oldest = 0;
  for (int i = 0; i < 120; ++i) {
    handles.push_back(sys.subscribe(pick_host(), scheme,
                                    gen.make_subscription()));
  }
  sim.run();

  // `n` writes at `cadence_ms` from now on, and a publish with every
  // fifth, drawn up front.
  const auto feed = [&](int n, double cadence_ms) {
    for (int i = 0; i < n; ++i) {
      const double at = cadence_ms * (i + 1);
      if (i % 3 == 2) {
        sim.schedule(at, [&] { sys.unsubscribe(handles[oldest++]); });
      } else {
        sim.schedule(at, [&, h = pick_host(), sub = gen.make_subscription()] {
          handles.push_back(sys.subscribe(h, scheme, sub));
        });
      }
      if (i % 5 == 4) {
        sim.schedule(at, [&, h = pick_host(), ev = gen.make_event()] {
          sys.publish(h, scheme, ev);
        });
      }
    }
  };

  net.revive(kJoiner);
  chord.start_maintenance();
  sys.join_node(kJoiner, 0);
  feed(600, 5.0);
  sim.run_until(sim.now() + 30000.0);
  chord.stop_maintenance();
  sim.run();

  sys.leave_node(kLeaver);
  feed(300, 1.0);
  sim.run();

  for (int i = 0; i < 40; ++i) {
    sys.publish(pick_host(), scheme, gen.make_event());
  }
  sim.run();
  sys.finalize_events();

  JoinLeaveOutput out;
  out.run.metrics_json = metrics::snapshot(sys).to_json();
  std::ostringstream jsonl;
  trace::write_jsonl(tracer, jsonl);
  out.run.span_jsonl = jsonl.str();
  out.run.deliveries = sys.deliveries().size();
  out.zone_digest = sys.zone_content_digest();
  common::ByteWriter w;
  sys.save_state(w);
  out.image = w.take();
  out.stats = sys.join_stats();
  out.invariants = sys.check_zone_invariants();
  return out;
}

void expect_identical(const RunOutput& a, const RunOutput& b) {
  // Byte-identical metrics JSON: every counter, mean, and histogram the
  // snapshot carries.
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  // Identical span logs: same count, same ids, same order, same
  // timestamps, same payloads (Span has defaulted operator==).
  EXPECT_EQ(a.traces_started, b.traces_started);
  ASSERT_EQ(a.spans.size(), b.spans.size());
  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    ASSERT_EQ(a.spans[i], b.spans[i]) << "span log diverges at index " << i;
  }
  EXPECT_EQ(a.deliveries, b.deliveries);
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void expect_pinned(const RunOutput& r, std::uint64_t snapshot_hash,
                   std::uint64_t span_log_hash) {
  EXPECT_EQ(fnv1a(r.metrics_json), snapshot_hash)
      << std::hex << "snapshot hash 0x" << fnv1a(r.metrics_json);
  EXPECT_EQ(fnv1a(r.span_jsonl), span_log_hash)
      << std::hex << "span log hash 0x" << fnv1a(r.span_jsonl);
}

TEST(Determinism, BaselineRunIsReproducible) {
  const auto a = run_once({});
  expect_identical(a, run_once({}));
  expect_pinned(a, 0xf4b628f6c4870610ull, 0x75a9bd31df08abb7ull);
}

TEST(Determinism, FastLaneRunIsReproducible) {
  const RunOpts o{.cache = true, .batch = true, .load_balance = true};
  const auto a = run_once(o);
  expect_identical(a, run_once(o));
  expect_pinned(a, 0x5dfe1dadf4800d52ull, 0x4bdf234bc5c1ecdcull);
}

TEST(Determinism, ChurnWithReliabilityIsReproducible) {
  const RunOpts o{.reliable = true, .replicas = 2, .churn = true};
  const auto a = run_once(o);
  expect_identical(a, run_once(o));
  expect_pinned(a, 0xc25bd3ffbee8ff60ull, 0xd95e79604dfdda9cull);
}

TEST(Determinism, ReliableBatchedChurnIsReproducible) {
  // Multi-chunk frames through the reliable channel: acks, expiry at dead
  // hops, and per-chunk reroutes of batched event messages.
  const RunOpts o{.reliable = true,
                  .replicas = 2,
                  .cache = true,
                  .batch = true,
                  .churn = true};
  const auto a = run_once(o);
  expect_identical(a, run_once(o));
  // The scenario must actually drive the path it pins.
  EXPECT_GT(a.batch.chunks, a.batch.frames);
  EXPECT_GT(a.rel.expirations, 0u);
  EXPECT_GT(a.rel.reroutes, 0u);
  expect_pinned(a, 0xac84c1689c5ae822ull, 0xacee3a9e240e2845ull);
}

TEST(Determinism, CoverAggregationRunIsReproducible) {
  const RunOpts o{.load_balance = true, .cover = true};
  const auto a = run_once(o);
  expect_identical(a, run_once(o));
  expect_pinned(a, 0x08365c52d08da10aull, 0x879e5b211c1991dfull);
}

TEST(Determinism, ProtocolJoinLeaveUnderWritesIsReproducible) {
  const auto a = run_join_leave();
  const auto b = run_join_leave();
  EXPECT_EQ(a.run.metrics_json, b.run.metrics_json);
  EXPECT_EQ(a.run.span_jsonl, b.run.span_jsonl);
  EXPECT_EQ(a.zone_digest, b.zone_digest);
  EXPECT_EQ(a.image, b.image);
  // The scenario must actually drive the paths it pins.
  EXPECT_EQ(a.stats.joins_committed, 1u);
  EXPECT_EQ(a.stats.leaves_completed, 1u);
  EXPECT_GT(a.stats.queued_ops_replayed, 0u);
  EXPECT_GT(a.stats.warm_ops_replayed, 0u);
  EXPECT_TRUE(a.invariants);
  expect_pinned(a.run, 0xc72de70dc618c164ull, 0xddb2f759977f775eull);
  EXPECT_EQ(a.zone_digest, 0x7b0795e76f277cc8ull)
      << std::hex << "zone digest 0x" << a.zone_digest;
  const std::string_view image(reinterpret_cast<const char*>(a.image.data()),
                               a.image.size());
  EXPECT_EQ(fnv1a(image), 0xf5ed6175bff91ba3ull)
      << std::hex << "save_state image hash 0x" << fnv1a(image);
}

TEST(Determinism, SampledTracingIsReproducibleAndStableAcrossRates) {
  const RunOpts half{.sample_rate = 0.5};
  const auto a = run_once(half);
  const auto b = run_once(half);
  expect_identical(a, b);
  expect_pinned(a, 0xf4b628f6c4870610ull, 0x28138719e7452c42ull);
  ASSERT_GT(a.spans.size(), 0u);

  // Changing only the sample rate never renumbers traces: the rate-0.5
  // span log is exactly the full log filtered to the sampled trace ids.
  const auto full = run_once({.sample_rate = 1.0});
  EXPECT_EQ(full.traces_started, a.traces_started);
  std::vector<trace::Span> filtered;
  for (const auto& s : full.spans) {
    if (trace::Tracer::sampled(s.trace, 0.5)) filtered.push_back(s);
  }
  ASSERT_EQ(filtered.size(), a.spans.size());
  for (std::size_t i = 0; i < filtered.size(); ++i) {
    // Same trees, same timestamps, same payloads; only the span ids shift
    // (they are allocated per recorded span).
    EXPECT_EQ(filtered[i].trace, a.spans[i].trace);
    EXPECT_EQ(filtered[i].kind, a.spans[i].kind);
    EXPECT_EQ(filtered[i].node, a.spans[i].node);
    EXPECT_DOUBLE_EQ(filtered[i].start_ms, a.spans[i].start_ms);
    EXPECT_DOUBLE_EQ(filtered[i].end_ms, a.spans[i].end_ms);
    EXPECT_EQ(filtered[i].a, a.spans[i].a);
    EXPECT_EQ(filtered[i].b, a.spans[i].b);
  }
}

}  // namespace
}  // namespace hypersub
