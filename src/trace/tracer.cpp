#include "trace/tracer.hpp"

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

}  // namespace

bool Tracer::sampled(TraceId id, double sample_rate) noexcept {
  if (sample_rate >= 1.0) return true;
  if (sample_rate <= 0.0) return false;
  // Compare the hash's top 53 bits (exactly representable in a double)
  // against the rate.
  const double u = double(mix(id) >> 11) * 0x1.0p-53;
  return u < sample_rate;
}

TraceId Tracer::start_trace(double sample_rate) {
  const TraceId id = ++trace_ctr_;
  return sampled(id, sample_rate) ? id : kNoTrace;
}

SpanId Tracer::begin(TraceId trace, SpanId parent, SpanKind kind,
                     net::HostIndex node, double start_ms, std::uint64_t a,
                     std::uint64_t b) {
  if (trace == kNoTrace) return kNoSpan;
  if (spans_.size() >= cfg_.max_spans) {
    ++dropped_;
    return kNoSpan;
  }
  const SpanId id = ++span_ctr_;
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
  spans_.push_back(s);
  return id;
}

}  // namespace hypersub::trace
