#include "trace/tracer.hpp"

#include <cassert>

#include "sim/simulator.hpp"

namespace hypersub::trace {

const char* to_string(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::kPublish: return "publish";
    case SpanKind::kMatch: return "match";
    case SpanKind::kForward: return "forward";
    case SpanKind::kDeliver: return "deliver";
    case SpanKind::kRetry: return "retry";
    case SpanKind::kExpire: return "expire";
    case SpanKind::kReroute: return "reroute";
    case SpanKind::kDrop: return "drop";
    case SpanKind::kCacheHit: return "cache_hit";
    case SpanKind::kCacheCorrect: return "cache_correct";
    case SpanKind::kRouteHop: return "route_hop";
    case SpanKind::kInstall: return "install";
    case SpanKind::kRegister: return "register";
    case SpanKind::kMigrate: return "migrate";
  }
  return "?";
}

namespace {

/// splitmix64 finalizer: a cheap, well-mixed hash of the trace id. The
/// sampling decision must be a pure function of the id so that runs are
/// reproducible and a trace is either fully recorded or fully absent.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Contexts are packed into the id's top 24 bits; 2^40 ids per context is
/// far beyond any simulated workload.
constexpr unsigned kCtxShift = 40;

/// Ambient trace context. Thread-local rather than a tracer member so that
/// run_experiments_parallel's per-experiment threads each see their own
/// slot; the set/take pair is always synchronous within one event
/// execution.
thread_local TraceCtx g_ambient;

}  // namespace

void Tracer::set_ambient(TraceCtx ctx) noexcept { g_ambient = ctx; }

TraceCtx Tracer::take_ambient() noexcept {
  const TraceCtx c = g_ambient;
  g_ambient = TraceCtx{};
  return c;
}

void Tracer::bind(sim::Simulator* sim, std::size_t max_shards) {
  sim_ = sim;
  // Preserve context 0's counters across a re-bind so ids stay unique.
  trace_ctr_.resize(max_shards + 1, 0);
  span_ctr_.resize(max_shards + 1, 0);
}

std::size_t Tracer::context_index() const noexcept {
  if (sim_ == nullptr) return 0;
  const sim::Shard s = sim_->current_shard();
  return s == sim::kNoShard ? 0 : std::size_t{s} + 1;
}

bool Tracer::sampled(TraceId id, double sample_rate) noexcept {
  if (sample_rate >= 1.0) return true;
  if (sample_rate <= 0.0) return false;
  // Compare the hash's top 53 bits (exactly representable in a double)
  // against the rate.
  const double u = double(mix(id) >> 11) * 0x1.0p-53;
  return u < sample_rate;
}

TraceId Tracer::start_trace(double sample_rate) {
  const std::size_t ctx = context_index();
  assert(ctx < trace_ctr_.size() && "tracer bound with too few shards");
  const TraceId id = (TraceId(ctx + 1) << kCtxShift) | ++trace_ctr_[ctx];
  return sampled(id, sample_rate) ? id : kNoTrace;
}

std::uint64_t Tracer::traces_started() const noexcept {
  std::uint64_t n = 0;
  for (const std::uint64_t c : trace_ctr_) n += c;
  return n;
}

SpanId Tracer::begin(TraceId trace, SpanId parent, SpanKind kind,
                     net::HostIndex node, double start_ms, std::uint64_t a,
                     std::uint64_t b) {
  if (trace == kNoTrace) return kNoSpan;
  if (spans_.size() >= cfg_.max_spans) {
    ++dropped_;
    return kNoSpan;
  }
  const std::size_t ctx = context_index();
  assert(ctx < span_ctr_.size() && "tracer bound with too few shards");
  const SpanId id = (SpanId(ctx + 1) << kCtxShift) | ++span_ctr_[ctx];
  Span s;
  s.trace = trace;
  s.id = id;
  s.parent = parent;
  s.kind = kind;
  s.node = node;
  s.start_ms = start_ms;
  s.end_ms = -1.0;
  s.a = a;
  s.b = b;
  index_.emplace(id, spans_.size());
  spans_.push_back(s);
  return id;
}

void Tracer::end(SpanId id, double end_ms) {
  if (id == kNoSpan) return;
  if (const auto it = index_.find(id); it != index_.end()) {
    spans_[it->second].end_ms = end_ms;
  }
}

}  // namespace hypersub::trace
