#pragma once
// Span model of the tracing subsystem (ISSUE 4; cf. SmartPubSub/VCube-PS:
// per-message causal paths are the unit of analysis for overlay
// dissemination).
//
// A *span* is one step of one causal tree: a publish, a routing hop, a
// match pass at a node, a forward edge between two nodes, a delivery, a
// retransmission, a drop. Every span carries the trace id of the tree it
// belongs to and the span id of its parent, so an event's full causal tree
// across nodes — publish → route hops → match → forward fan-out →
// deliver/retry/drop — is reconstructible offline from the flat span log
// (tools/trace_report.py does exactly that).
//
// Timestamps are virtual simulator time in milliseconds. A span with
// end_ms < start_ms is *open*: the edge it describes never completed (the
// message died at a dead host, or the run was cut before the ack).

#include <cstdint>

#include "net/topology.hpp"

namespace hypersub::trace {

/// Identifies one causal tree (one published event, one subscription
/// installation, one migration handoff). 0 = not traced.
using TraceId = std::uint64_t;
/// Identifies one span within a Tracer. 0 = none. A tracer numbers its
/// spans 1, 2, 3, ... in the order they open.
using SpanId = std::uint64_t;

inline constexpr TraceId kNoTrace = 0;
inline constexpr SpanId kNoSpan = 0;

/// What one span describes. The wire protocol propagates only (trace id,
/// parent span id); kinds are assigned by the recording site.
enum class SpanKind : std::uint8_t {
  kPublish,       ///< root of an event tree; a = event seq
  kMatch,         ///< match pass at a node (Alg. 5); a = hops on arrival
  kForward,       ///< one forwarded event message; a = destination host
  kDeliver,       ///< delivery to a subscriber; a = iid, b = hops
  kRetry,         ///< reliable-channel retransmission; a = attempt number
  kExpire,        ///< all retransmissions exhausted; a = dead next hop
  kReroute,       ///< failover resend around a dead hop; a = new next hop
  kDrop,          ///< unmasked loss (TTL / no viable hop); a = subids lost
  kCacheHit,      ///< publish used a cached rendezvous owner; a = owner host
  kCacheCorrect,  ///< true owner corrected a publisher's cache (miss or
                  ///< stale-hit forward-and-correct); a = publisher host
  kRouteHop,      ///< one DHT lookup hop (install path); a = hop count
  kInstall,       ///< root of a subscription-install tree; a = scheme
  kRegister,      ///< subscription stored at its surrogate; a = iid
  kMigrate,       ///< root of one LB bucket handoff; a = subscriptions moved,
                  ///< b = acceptor host
};

/// Stable lowercase name (exporters, reports).
const char* to_string(SpanKind k) noexcept;

/// One recorded span. `a`/`b` are kind-specific payloads (see SpanKind).
struct Span {
  TraceId trace = kNoTrace;
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  SpanKind kind = SpanKind::kPublish;
  net::HostIndex node = 0;   ///< where the step happened (track in exports)
  double start_ms = 0.0;
  double end_ms = -1.0;      ///< < start_ms means the span never completed
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  bool open() const noexcept { return end_ms < start_ms; }
  double duration_ms() const noexcept { return open() ? 0.0 : end_ms - start_ms; }

  friend bool operator==(const Span&, const Span&) = default;
};

/// The propagated context: which tree a message belongs to and which span
/// caused it. This is what rides in message headers (16 B + 4 B on the
/// wire; the simulator models it as metadata, not accounted bytes, since
/// tracing is an observability harness, not protocol payload).
struct TraceCtx {
  TraceId trace = kNoTrace;
  SpanId parent = kNoSpan;

  bool active() const noexcept { return trace != kNoTrace; }
};

}  // namespace hypersub::trace
