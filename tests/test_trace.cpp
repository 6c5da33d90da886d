// Tracing subsystem tests: Tracer unit semantics (deterministic sampling,
// span lifecycle, the span cap, reset, dense span ids across a checkpoint),
// end-to-end causal-tree propagation (the trace tree reconstructs exactly
// the delivery set, through churn with reliable delivery and through the
// route cache's stale-hit forward-and-correct), and structural validation
// of the exporters.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "chord/chord_net.hpp"
#include "common/wire.hpp"
#include "core/hypersub_system.hpp"
#include "core/route_cache.hpp"
#include "net/topology.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "workload/scheme_factory.hpp"
#include "workload/zipf_workload.hpp"

namespace hypersub {
namespace {

using core::HyperSubSystem;
using trace::kNoSpan;
using trace::kNoTrace;
using trace::Span;
using trace::SpanKind;
using trace::Tracer;

// ---------------------------------------------------------------------------
// Tracer unit semantics
// ---------------------------------------------------------------------------

TEST(TracerUnit, SamplingIsDeterministicAndRateFaithful) {
  // The predicate is a pure function of (id, rate).
  for (trace::TraceId id : {1ull, 2ull, 57ull, 1048576ull}) {
    EXPECT_EQ(Tracer::sampled(id, 0.5), Tracer::sampled(id, 0.5));
    EXPECT_TRUE(Tracer::sampled(id, 1.0));
    EXPECT_FALSE(Tracer::sampled(id, 0.0));
  }
  // Two tracers allocate the same id sequence with the same decisions.
  Tracer a, b;
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.start_trace(0.3), b.start_trace(0.3));
  }
  EXPECT_EQ(a.traces_started(), 200u);
  // At rate 0.3 roughly a third of the ids are kept — the hash is not
  // degenerate in either direction.
  std::size_t kept = 0;
  Tracer c;
  for (int i = 0; i < 1000; ++i) {
    if (c.start_trace(0.3) != kNoTrace) ++kept;
  }
  EXPECT_GT(kept, 200u);
  EXPECT_LT(kept, 400u);
  // Unsampled traces still advance the id counter: sampled ids are stable
  // across rates.
  EXPECT_EQ(c.traces_started(), 1000u);
}

TEST(TracerUnit, SpanLifecycle) {
  Tracer t;
  const auto tid = t.start_trace(1.0);
  ASSERT_NE(tid, kNoTrace);

  const auto root = t.begin(tid, kNoSpan, SpanKind::kPublish, 3, 10.0, 42, 7);
  ASSERT_NE(root, kNoSpan);
  const auto child = t.begin(tid, root, SpanKind::kForward, 3, 11.0, 9);
  ASSERT_NE(child, kNoSpan);
  t.end(child, 15.0);
  t.end(kNoSpan, 99.0);  // no-op

  ASSERT_EQ(t.span_count(), 2u);
  const Span& r = t.spans()[0];
  EXPECT_EQ(r.trace, tid);
  EXPECT_EQ(r.parent, kNoSpan);
  EXPECT_EQ(r.kind, SpanKind::kPublish);
  EXPECT_EQ(r.node, 3u);
  EXPECT_EQ(r.a, 42u);
  EXPECT_EQ(r.b, 7u);
  EXPECT_TRUE(r.open());  // never ended
  const Span& f = t.spans()[1];
  EXPECT_EQ(f.parent, root);
  EXPECT_FALSE(f.open());
  EXPECT_DOUBLE_EQ(f.duration_ms(), 4.0);

  // Spans of an unsampled trace are never recorded.
  EXPECT_EQ(t.begin(kNoTrace, kNoSpan, SpanKind::kPublish, 0, 0.0), kNoSpan);
  EXPECT_EQ(t.span_count(), 2u);
}

TEST(TracerUnit, SpanCapBoundsMemoryAndCounts) {
  Tracer t(Tracer::Config{.max_spans = 4});
  const auto tid = t.start_trace(1.0);
  for (int i = 0; i < 6; ++i) {
    const auto id = t.point(tid, kNoSpan, SpanKind::kDeliver, 0, double(i));
    if (i < 4) {
      EXPECT_NE(id, kNoSpan);
    } else {
      EXPECT_EQ(id, kNoSpan);
    }
  }
  EXPECT_EQ(t.span_count(), 4u);
  EXPECT_EQ(t.dropped_spans(), 2u);
}

TEST(TracerUnit, ResetClearsSpansButKeepsIdsUnique) {
  Tracer t;
  const auto t1 = t.start_trace(1.0);
  const auto s1 = t.point(t1, kNoSpan, SpanKind::kPublish, 0, 1.0);
  t.reset();
  EXPECT_EQ(t.span_count(), 0u);
  const auto t2 = t.start_trace(1.0);
  const auto s2 = t.point(t2, kNoSpan, SpanKind::kPublish, 0, 2.0);
  EXPECT_NE(t1, t2);
  EXPECT_NE(s1, s2);  // span ids are not reused across a reset
}

TEST(TracerUnit, DenseSpanIdsSurviveResetRestoreAndTheCap) {
  // Span ids are 1, 2, 3, ... and end() finds its row by subtraction.
  Tracer t(Tracer::Config{.max_spans = 3});
  const auto tid = t.start_trace(1.0);
  const auto s1 = t.begin(tid, kNoSpan, SpanKind::kPublish, 0, 1.0);
  EXPECT_EQ(s1, 1u);

  // After reset(), ending a pre-reset id changes no row.
  t.reset();
  const auto s2 = t.begin(tid, kNoSpan, SpanKind::kForward, 0, 2.0);
  EXPECT_EQ(s2, 2u);
  t.end(s1, 9.0);
  ASSERT_EQ(t.span_count(), 1u);
  EXPECT_TRUE(t.spans()[0].open());

  // A span open at the checkpoint is closed by end() in the restored
  // tracer, and the next begin() continues the sequence.
  const auto s3 = t.begin(tid, s2, SpanKind::kDeliver, 0, 3.0);
  common::ByteWriter w;
  t.save_state(w);
  const std::vector<std::uint8_t> image = w.take();
  Tracer r(Tracer::Config{.max_spans = 3});
  common::ByteReader in(image);
  r.restore_state(in);
  EXPECT_EQ(r.spans(), t.spans());
  r.end(s2, 4.0);
  EXPECT_DOUBLE_EQ(r.spans()[0].end_ms, 4.0);
  EXPECT_TRUE(r.spans()[1].open());
  EXPECT_EQ(r.begin(tid, s3, SpanKind::kDeliver, 0, 5.0), s3 + 1);

  // Spans refused at max_spans consume no id.
  EXPECT_EQ(r.begin(tid, s3, SpanKind::kDeliver, 0, 6.0), kNoSpan);
  EXPECT_EQ(r.dropped_spans(), 1u);
  r.reset();
  EXPECT_EQ(r.begin(tid, kNoSpan, SpanKind::kPublish, 0, 7.0), s3 + 2);
  EXPECT_EQ(r.traces_started(), 1u);
}

// ---------------------------------------------------------------------------
// System scaffolding
// ---------------------------------------------------------------------------

struct StackOpts {
  bool reliable = false;
  std::size_t replicas = 0;
  bool cache = false;
  bool batch = false;
  double sample_rate = 1.0;
};

struct Stack {
  std::unique_ptr<net::KingLikeTopology> topo;
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<chord::ChordNet> chord;
  std::unique_ptr<HyperSubSystem> sys;
  std::unique_ptr<Tracer> tracer;
};

Stack make_stack(std::size_t n, std::uint64_t seed, StackOpts o = {}) {
  Stack s;
  net::KingLikeTopology::Params tp;
  tp.hosts = n;
  tp.seed = seed;
  s.topo = std::make_unique<net::KingLikeTopology>(tp);
  s.sim = std::make_unique<sim::Simulator>();
  s.net = std::make_unique<net::Network>(*s.sim, *s.topo);
  chord::ChordNet::Params cp;
  cp.seed = seed;
  cp.reliable_routing = o.reliable;
  s.chord = std::make_unique<chord::ChordNet>(*s.net, cp);
  HyperSubSystem::Config sc;
  sc.bootstrap = core::BootstrapMode::kOracle;
  sc.reliable_delivery = o.reliable;
  sc.replicas = o.replicas;
  sc.route_cache = o.cache;
  sc.batch_forwarding = o.batch;
  sc.trace_sample_rate = o.sample_rate;
  s.sys = std::make_unique<HyperSubSystem>(*s.chord, sc);
  s.tracer = std::make_unique<Tracer>();
  s.sys->set_tracer(s.tracer.get());
  return s;
}

/// (event seq, subscriber host, iid) — the delivery identity used both by
/// the system's delivery log and by the span log.
using DeliveryKey = std::tuple<std::uint64_t, std::size_t, std::uint32_t>;

std::multiset<DeliveryKey> delivered(const HyperSubSystem& sys) {
  std::multiset<DeliveryKey> out;
  for (const auto& d : sys.deliveries()) {
    out.insert({d.event_seq, d.subscriber, d.iid});
  }
  return out;
}

/// Reconstructs the delivery set from the span log alone: every deliver
/// span, keyed by the event seq carried on its trace's publish root.
std::multiset<DeliveryKey> delivered_by_trace(const Tracer& t) {
  std::unordered_map<trace::TraceId, std::uint64_t> seq_of_trace;
  for (const Span& s : t.spans()) {
    if (s.kind == SpanKind::kPublish && s.parent == kNoSpan) {
      seq_of_trace[s.trace] = s.a;
    }
  }
  std::multiset<DeliveryKey> out;
  for (const Span& s : t.spans()) {
    if (s.kind != SpanKind::kDeliver) continue;
    const auto it = seq_of_trace.find(s.trace);
    EXPECT_NE(it, seq_of_trace.end()) << "deliver span with no publish root";
    if (it == seq_of_trace.end()) continue;
    out.insert({it->second, s.node, std::uint32_t(s.a)});
  }
  return out;
}

/// Every span's parent chain must terminate at a root of its own trace.
void expect_well_formed_trees(const Tracer& t) {
  std::unordered_map<trace::SpanId, const Span*> by_id;
  for (const Span& s : t.spans()) by_id[s.id] = &s;
  for (const Span& s : t.spans()) {
    const Span* cur = &s;
    int guard = 0;
    while (cur->parent != kNoSpan && ++guard < 10000) {
      const auto it = by_id.find(cur->parent);
      ASSERT_NE(it, by_id.end())
          << "span " << cur->id << " has dangling parent " << cur->parent;
      ASSERT_EQ(it->second->trace, s.trace)
          << "span " << s.id << " chains into a different trace";
      cur = it->second;
    }
    ASSERT_LT(guard, 10000) << "parent cycle at span " << s.id;
  }
}

std::size_t count_kind(const Tracer& t, SpanKind k) {
  std::size_t n = 0;
  for (const Span& s : t.spans()) n += (s.kind == k);
  return n;
}

// ---------------------------------------------------------------------------
// End-to-end propagation
// ---------------------------------------------------------------------------

TEST(TracePropagation, CausalTreeMatchesDeliverySet) {
  constexpr std::size_t kHosts = 30;
  auto s = make_stack(kHosts, 3);
  workload::WorkloadGenerator gen(workload::tiny_spec(), 5);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  const auto scheme = s.sys->add_scheme(gen.scheme(), opt);
  Rng rng(7);
  for (int i = 0; i < 60; ++i) {
    s.sys->subscribe(net::HostIndex(rng.index(kHosts)), scheme,
                     gen.make_subscription());
  }
  s.sim->run();
  s.tracer->reset();  // event phase only

  constexpr int kEvents = 25;
  for (int i = 0; i < kEvents; ++i) {
    s.sys->publish(net::HostIndex(rng.index(kHosts)), scheme,
                   gen.make_event());
  }
  s.sim->run();
  s.sys->finalize_events();

  // The span log reconstructs the delivery log exactly.
  const auto from_sys = delivered(*s.sys);
  const auto from_trace = delivered_by_trace(*s.tracer);
  EXPECT_GT(from_sys.size(), 0u);
  EXPECT_EQ(from_sys, from_trace);
  expect_well_formed_trees(*s.tracer);

  // One root per publish, all closed (finalize ends every tracker), and in
  // a healthy network every forward edge completed.
  EXPECT_EQ(count_kind(*s.tracer, SpanKind::kPublish), std::size_t(kEvents));
  for (const Span& sp : s.tracer->spans()) {
    if (sp.kind == SpanKind::kPublish || sp.kind == SpanKind::kForward) {
      EXPECT_FALSE(sp.open()) << to_string(sp.kind) << " span left open";
    }
  }
  const auto sum = trace::summarize(*s.tracer);
  EXPECT_EQ(sum.event_traces, std::size_t(kEvents));
  EXPECT_EQ(sum.deliveries, from_sys.size());
  EXPECT_EQ(sum.retries, 0u);
  EXPECT_EQ(sum.drops, 0u);
  EXPECT_EQ(sum.latency_ms.count(), from_sys.size());
}

TEST(TracePropagation, InstallTraceRecordsRouteAndRegistration) {
  auto s = make_stack(24, 11);
  workload::WorkloadGenerator gen(workload::tiny_spec(), 13);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  const auto scheme = s.sys->add_scheme(gen.scheme(), opt);
  s.sys->subscribe(5, scheme, gen.make_subscription());
  s.sim->run();

  // The installation produced its own trace: an install root, closed when
  // the subscription registered at its surrogate.
  EXPECT_GE(count_kind(*s.tracer, SpanKind::kInstall), 1u);
  EXPECT_GE(count_kind(*s.tracer, SpanKind::kRegister), 1u);
  for (const Span& sp : s.tracer->spans()) {
    if (sp.kind == SpanKind::kInstall) {
      EXPECT_FALSE(sp.open());
    }
  }
  expect_well_formed_trees(*s.tracer);
}

TEST(TracePropagation, ChurnTracesRetriesReroutesAndDeliveries) {
  constexpr std::size_t kHosts = 40;
  auto s = make_stack(kHosts, 31, {.reliable = true, .replicas = 2});
  workload::WorkloadGenerator gen(workload::table1_spec(), 7);
  core::SchemeOptions opt;
  opt.zone_cfg = {1, 20};
  const auto scheme = s.sys->add_scheme(gen.scheme(), opt);
  Rng rng(41);
  for (int i = 0; i < 200; ++i) {
    s.sys->subscribe(net::HostIndex(rng.index(kHosts)), scheme,
                     gen.make_subscription());
  }
  s.sim->run();
  s.tracer->reset();

  // Kill a third of the network with no repair — stale routing state
  // everywhere — then publish through the wreckage.
  for (net::HostIndex k = 0; k < kHosts; k += 3) s.chord->fail(k);
  for (int i = 0; i < 50; ++i) {
    net::HostIndex pub = net::HostIndex(rng.index(kHosts));
    while (!s.net->alive(pub)) pub = (pub + 1) % kHosts;
    s.sys->publish(pub, scheme, gen.make_event());
  }
  s.sim->run();
  s.sys->finalize_events();

  // The trace trees still reconstruct the delivery set exactly, and the
  // reliability machinery's work is visible in them.
  EXPECT_EQ(delivered(*s.sys), delivered_by_trace(*s.tracer));
  expect_well_formed_trees(*s.tracer);
  const auto sum = trace::summarize(*s.tracer);
  EXPECT_GT(sum.retries, 0u);
  EXPECT_GT(sum.deliveries, 0u);
  // Dead hops swallow subtrees; the spans account for the losses the
  // counters report (expirations surface as retry chains + drops).
  const auto c = s.sys->reliability_counters();
  EXPECT_GT(c.retries, 0u);
  // Every traced retry has a counter behind it (warm-up retries are in the
  // counters but their spans were reset away, so <= not ==).
  EXPECT_LE(sum.retries, c.retries + s.chord->route_reliability().retries);
}

TEST(TracePropagation, StaleCacheHitForwardAndCorrectIsTraced) {
  // The test_route_cache StaleHitSelfRepairs scenario, observed through
  // spans: a poisoned cache entry sends the probe to the wrong host, which
  // forwards it onward; the true owner both delivers and corrects the
  // publisher's cache — all inside one causal tree.
  auto s = make_stack(40, 7, {.cache = true});
  workload::WorkloadGenerator gen(workload::tiny_spec(), 9);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  const auto scheme = s.sys->add_scheme(gen.scheme(), opt);
  s.sys->subscribe(2, scheme, pubsub::Subscription(gen.scheme().domain()));
  s.sim->run();
  s.tracer->reset();

  const auto e = gen.make_event();
  const auto& ss = s.sys->scheme_runtime(scheme).subscheme(0);
  const Id key = ss.zone_key(ss.zones().locate(ss.project(e.point)));
  const auto owner = s.chord->oracle_successor(key).host;
  const net::HostIndex pub = (owner + 1) % 40;
  net::HostIndex wrong = (owner + 2) % 40;
  if (wrong == pub) wrong = (wrong + 1) % 40;
  ASSERT_NE(wrong, owner);
  s.sys->route_cache(pub).learn(key, wrong);

  s.sys->publish(pub, scheme, e);
  s.sim->run();
  s.sys->finalize_events();

  ASSERT_EQ(s.sys->deliveries().size(), 1u);
  EXPECT_EQ(delivered(*s.sys), delivered_by_trace(*s.tracer));
  expect_well_formed_trees(*s.tracer);

  // The stale hit and its correction are both on the tree: a cache_hit
  // naming the (wrong) cached owner, then a cache_correct naming the
  // publisher whose cache the true owner fixed.
  bool saw_stale_hit = false, saw_correction = false;
  for (const Span& sp : s.tracer->spans()) {
    if (sp.kind == SpanKind::kCacheHit && sp.a == wrong) saw_stale_hit = true;
    if (sp.kind == SpanKind::kCacheCorrect && sp.a == pub) {
      saw_correction = true;
    }
  }
  EXPECT_TRUE(saw_stale_hit);
  EXPECT_TRUE(saw_correction);
  EXPECT_EQ(s.sys->route_cache(pub).lookup(key), owner);
}

TEST(TracePropagation, RateZeroRecordsNoEventSpans) {
  auto s = make_stack(20, 3, {.sample_rate = 0.0});
  workload::WorkloadGenerator gen(workload::tiny_spec(), 5);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  const auto scheme = s.sys->add_scheme(gen.scheme(), opt);
  s.sys->subscribe(4, scheme, pubsub::Subscription(gen.scheme().domain()));
  s.sim->run();
  s.tracer->reset();

  for (int i = 0; i < 10; ++i) {
    s.sys->publish(1, scheme, gen.make_event());
  }
  s.sim->run();
  s.sys->finalize_events();

  EXPECT_GT(s.sys->deliveries().size(), 0u);  // the system still works
  EXPECT_EQ(s.tracer->span_count(), 0u);      // and records nothing
  EXPECT_GT(s.tracer->traces_started(), 0u);  // ids advanced regardless
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(TraceExport, JsonlAndPerfettoAreStructurallySound) {
  auto s = make_stack(20, 3);
  workload::WorkloadGenerator gen(workload::tiny_spec(), 5);
  core::SchemeOptions opt;
  opt.zone_cfg = lph::ZoneSystem::Config::for_dims(2);
  const auto scheme = s.sys->add_scheme(gen.scheme(), opt);
  s.sys->subscribe(4, scheme, pubsub::Subscription(gen.scheme().domain()));
  s.sim->run();
  for (int i = 0; i < 5; ++i) s.sys->publish(1, scheme, gen.make_event());
  s.sim->run();
  s.sys->finalize_events();
  ASSERT_GT(s.tracer->span_count(), 0u);

  // JSONL: one object per line, one line per span, every key present.
  std::ostringstream jl;
  EXPECT_EQ(trace::write_jsonl(*s.tracer, jl), s.tracer->span_count());
  std::istringstream lines(jl.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    for (const char* k :
         {"\"trace\"", "\"span\"", "\"parent\"", "\"kind\"", "\"node\"",
          "\"start_ms\"", "\"end_ms\"", "\"a\"", "\"b\""}) {
      EXPECT_NE(line.find(k), std::string::npos) << k << " missing: " << line;
    }
  }
  EXPECT_EQ(n, s.tracer->span_count());

  // Perfetto: a traceEvents array containing per-node track metadata and
  // one complete ("X") event per closed span.
  std::ostringstream pf;
  EXPECT_GT(trace::write_perfetto(*s.tracer, pf), 0u);
  const std::string p = pf.str();
  EXPECT_EQ(p.rfind("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [", 0),
            0u);
  EXPECT_NE(p.find("]}"), std::string::npos);
  EXPECT_NE(p.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(p.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(p.find("thread_name"), std::string::npos);
}

}  // namespace
}  // namespace hypersub
