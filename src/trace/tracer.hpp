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
//   * deterministic — trace ids and span ids each come from one counter
//     (1, 2, 3, ...) advanced in execution order, and the sampling decision
//     is a pure hash of the trace id, so two runs with the same seed and
//     config produce byte-identical span logs. Span ids are dense: the
//     recorded spans hold consecutive ids, so end() finds its row by
//     subtraction.
//   * bounded — spans append to a flat vector capped at max_spans; beyond
//     the cap new spans are refused (dropped_spans counts them) so a long
//     churn run cannot OOM the harness.
//
// The tracer is shared by every layer of one system instance (pub/sub
// core, reliable channel, Chord routing, load balancer); each run owns its
// own tracer, and nothing in it is shared between runs.

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/wire.hpp"
#include "trace/span.hpp"

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

  // -- trace lifecycle -------------------------------------------------------

  /// Allocate the next trace id and decide whether to record it: returns
  /// the id if sampled, kNoTrace otherwise. The counter advances either
  /// way, so changing the sample rate never renumbers the traces that are
  /// kept (stable ids across rates, byte-stable across runs). `sample_rate`
  /// in [0,1] is typically Config::trace_sample_rate of the system being
  /// traced.
  TraceId start_trace(double sample_rate);

  /// The deterministic sampling predicate (exposed for tests): a splitmix
  /// hash of the id measured against the rate.
  static bool sampled(TraceId id, double sample_rate) noexcept;

  // -- span recording --------------------------------------------------------

  /// Open a span; returns its id (kNoSpan if the trace is not recorded or
  /// the span cap is hit — always safe to pass back in as a parent). A
  /// refused span consumes no id.
  SpanId begin(TraceId trace, SpanId parent, SpanKind kind,
               net::HostIndex node, double start_ms, std::uint64_t a = 0,
               std::uint64_t b = 0);

  /// Close a span opened by begin(). kNoSpan, and ids of spans dropped by
  /// reset(), are ignored. Inline: every hop of an unsampled event calls it
  /// with kNoSpan.
  void end(SpanId id, double end_ms) {
    const SpanId first = span_ctr_ + 1 - spans_.size();
    if (id >= first && id <= span_ctr_) spans_[id - first].end_ms = end_ms;
  }

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
  /// Traces allocated so far (sampled or not).
  std::uint64_t traces_started() const noexcept { return trace_ctr_; }
  /// Spans refused because the max_spans cap was reached.
  std::uint64_t dropped_spans() const noexcept { return dropped_; }
  const Config& config() const noexcept { return cfg_; }

  /// Drop all recorded spans (e.g. after warm-up). Trace/span id counters
  /// keep advancing — ids stay unique across a reset.
  void reset() {
    spans_.clear();
    dropped_ = 0;
  }

  // -- checkpointing ---------------------------------------------------------

  /// Serialize the span log and the two id counters so a restored run keeps
  /// appending exactly where the checkpointed one stopped.
  void save_state(common::ByteWriter& w) const {
    w.u64(trace_ctr_);
    w.u64(span_ctr_);
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
    trace_ctr_ = r.u64();
    span_ctr_ = r.u64();
    dropped_ = r.u64();
    spans_.clear();
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
      spans_.push_back(s);
    }
    assert(spans_.empty() || spans_.back().id == span_ctr_);
  }

  // -- ambient context -------------------------------------------------------
  // The overlay's route() API predates tracing and cannot carry a trace
  // context parameter without breaking every substrate. Instead the caller
  // parks the context here immediately before the route() call and the
  // substrate reads it synchronously (nothing can interleave within one
  // event execution). Cleared by the reader.

  void set_ambient(TraceCtx ctx) noexcept { ambient_ = ctx; }
  TraceCtx take_ambient() noexcept {
    const TraceCtx c = ambient_;
    ambient_ = TraceCtx{};
    return c;
  }

 private:
  Config cfg_;
  std::vector<Span> spans_;  ///< ids span_ctr_ - size() + 1 ... span_ctr_
  std::uint64_t trace_ctr_ = 0;  ///< last trace id allocated
  std::uint64_t span_ctr_ = 0;   ///< last span id allocated
  std::uint64_t dropped_ = 0;
  TraceCtx ambient_;
};

inline Tracer* maybe(Tracer* t) noexcept {
  if constexpr (!kCompiledIn) return nullptr;
  return t;
}

}  // namespace hypersub::trace
