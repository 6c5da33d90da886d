#pragma once
// Tracer: the recording half of the tracing subsystem.
//
// Design constraints (ISSUE 4):
//   * ~zero cost when disabled — instrumented classes hold a raw
//     `trace::Tracer*` that is nullptr by default; every instrumentation
//     site is guarded by one pointer test. Defining HYPERSUB_TRACING=0 at
//     compile time turns that test into a compile-time constant false and
//     the instrumentation folds away entirely (the null tracer "compiles
//     out").
//   * deterministic — trace/span ids come from per-execution-context
//     counters (the context is the shard of the event doing the recording,
//     or 0 for main-context work and unbound tracers) encoded into the id's
//     high bits, and the sampling decision is a pure hash of the id, so two
//     runs with the same seed and config produce byte-identical span logs.
//   * bounded — spans append to a flat vector capped at max_spans; beyond
//     the cap new spans are refused (dropped_spans counts them) so a long
//     churn run cannot OOM the harness.
//
// The tracer is shared by every layer of one system instance (pub/sub
// core, reliable channel, Chord routing, load balancer).

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/wire.hpp"
#include "trace/span.hpp"

namespace hypersub::sim {
class Simulator;
}

namespace hypersub::trace {

// Compile-time master switch. Build with -DHYPERSUB_TRACING=0 to compile
// the instrumentation out of every guarded call site.
#ifndef HYPERSUB_TRACING
#define HYPERSUB_TRACING 1
#endif
inline constexpr bool kCompiledIn = HYPERSUB_TRACING != 0;

class Tracer;

/// Guarded accessor used by instrumented classes: returns the attached
/// tracer, or a compile-time nullptr when tracing is compiled out (the
/// branch and everything behind it fold away).
inline Tracer* maybe(Tracer* t) noexcept;

class Tracer {
 public:
  struct Config {
    /// Hard cap on recorded spans (memory bound for long runs).
    std::size_t max_spans = std::size_t{1} << 22;
  };

  Tracer() = default;
  explicit Tracer(Config cfg) : cfg_(cfg) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Attach this tracer to a simulator so ids are minted per execution
  /// context. `max_shards` is the number of shards (hosts) the simulation
  /// uses. Unbound tracers record with context 0.
  void bind(sim::Simulator* sim, std::size_t max_shards);

  // -- trace lifecycle -------------------------------------------------------

  /// Allocate the next trace id in the current execution context and decide
  /// whether to record it: returns the id if sampled, kNoTrace otherwise.
  /// The context's counter advances either way, so changing the sample rate
  /// never renumbers the traces that are kept (stable ids across rates,
  /// byte-stable across runs). `sample_rate` in
  /// [0,1] is typically Config::trace_sample_rate of the system being
  /// traced.
  TraceId start_trace(double sample_rate);

  /// The deterministic sampling predicate (exposed for tests): a splitmix
  /// hash of the id measured against the rate.
  static bool sampled(TraceId id, double sample_rate) noexcept;

  // -- span recording --------------------------------------------------------

  /// Open a span; returns its id (kNoSpan if the trace is not recorded or
  /// the span cap is hit — always safe to pass back in as a parent).
  SpanId begin(TraceId trace, SpanId parent, SpanKind kind,
               net::HostIndex node, double start_ms, std::uint64_t a = 0,
               std::uint64_t b = 0);

  /// Close a span opened by begin(). kNoSpan is ignored.
  void end(SpanId id, double end_ms);

  /// Record an instantaneous span (start == end).
  SpanId point(TraceId trace, SpanId parent, SpanKind kind,
               net::HostIndex node, double at_ms, std::uint64_t a = 0,
               std::uint64_t b = 0) {
    const SpanId id = begin(trace, parent, kind, node, at_ms, a, b);
    end(id, at_ms);
    return id;
  }

  // -- introspection ---------------------------------------------------------

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::size_t span_count() const noexcept { return spans_.size(); }
  /// Traces allocated so far (sampled or not), across all contexts.
  std::uint64_t traces_started() const noexcept;
  /// Spans refused because the max_spans cap was reached.
  std::uint64_t dropped_spans() const noexcept { return dropped_; }
  const Config& config() const noexcept { return cfg_; }

  /// Drop all recorded spans (e.g. after warm-up). Trace/span id counters
  /// keep advancing — ids stay unique across a reset.
  void reset() {
    spans_.clear();
    index_.clear();
    dropped_ = 0;
  }

  // -- checkpointing ---------------------------------------------------------

  /// Serialize the span log and the per-context id counters so a restored
  /// run keeps appending exactly where the checkpointed one stopped.
  void save_state(common::ByteWriter& w) const {
    w.u32(std::uint32_t(trace_ctr_.size()));
    for (const std::uint64_t c : trace_ctr_) w.u64(c);
    w.u32(std::uint32_t(span_ctr_.size()));
    for (const std::uint64_t c : span_ctr_) w.u64(c);
    w.u64(dropped_);
    w.u64(spans_.size());
    for (const Span& s : spans_) {
      w.u64(s.trace);
      w.u64(s.id);
      w.u64(s.parent);
      w.u8(std::uint8_t(s.kind));
      w.u64(std::uint64_t(s.node));
      w.f64(s.start_ms);
      w.f64(s.end_ms);
      w.u64(s.a);
      w.u64(s.b);
    }
  }

  void restore_state(common::ByteReader& r) {
    trace_ctr_.assign(r.u32(), 0);
    for (std::uint64_t& c : trace_ctr_) c = r.u64();
    span_ctr_.assign(r.u32(), 0);
    for (std::uint64_t& c : span_ctr_) c = r.u64();
    dropped_ = r.u64();
    spans_.clear();
    index_.clear();
    const std::size_t n = std::size_t(r.u64());
    spans_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      Span s;
      s.trace = r.u64();
      s.id = r.u64();
      s.parent = r.u64();
      s.kind = SpanKind(r.u8());
      s.node = net::HostIndex(r.u64());
      s.start_ms = r.f64();
      s.end_ms = r.f64();
      s.a = r.u64();
      s.b = r.u64();
      index_.emplace(s.id, spans_.size());
      spans_.push_back(s);
    }
  }

  // -- ambient context -------------------------------------------------------
  // The overlay's route() API predates tracing and cannot carry a trace
  // context parameter without breaking every substrate. Instead the caller
  // parks the context here immediately before the route() call and the
  // substrate reads it synchronously (nothing can interleave within one
  // event execution, and the slot is thread-local so simulations running
  // on separate threads do not share it). Cleared by the reader.

  static void set_ambient(TraceCtx ctx) noexcept;
  static TraceCtx take_ambient() noexcept;

 private:
  /// 0 for main-context / exclusive / unbound recording, shard+1 for
  /// events executing on a shard.
  std::size_t context_index() const noexcept;

  Config cfg_;
  std::vector<Span> spans_;
  std::unordered_map<SpanId, std::size_t> index_;  ///< span id -> spans_ slot
  sim::Simulator* sim_ = nullptr;
  std::vector<std::uint64_t> trace_ctr_{0};  ///< per-context trace counters
  std::vector<std::uint64_t> span_ctr_{0};   ///< per-context span counters
  std::uint64_t dropped_ = 0;
};

inline Tracer* maybe(Tracer* t) noexcept {
  if constexpr (!kCompiledIn) return nullptr;
  return t;
}

}  // namespace hypersub::trace
