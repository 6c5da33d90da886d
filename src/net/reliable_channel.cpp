#include "net/reliable_channel.hpp"

#include <cmath>
#include <utility>

namespace hypersub::net {

ReliableChannel::Stats ReliableChannel::stats() const noexcept {
  Stats s;
  for (const Stats& h : per_host_) {
    s.sent += h.sent;
    s.acked += h.acked;
    s.retries += h.retries;
    s.expired += h.expired;
    s.duplicates_suppressed += h.duplicates_suppressed;
  }
  return s;
}

void ReliableChannel::reset_stats() {
  for (Stats& h : per_host_) h = Stats{};
}

void ReliableChannel::send(HostIndex from, HostIndex to, std::uint64_t bytes,
                           std::function<void()> deliver,
                           std::function<void()> on_fail,
                           trace::TraceCtx tctx) {
  ++per_host_[from].sent;
  if (from == to) {
    ++per_host_[from].acked;
    net_.send(from, to, bytes, std::move(deliver));
    return;
  }
  const std::uint64_t id =
      (std::uint64_t(from + 1) << 40) | ++send_ctr_[from];
  auto m = std::make_shared<Message>(Message{from, to, bytes, id,
                                             std::move(deliver),
                                             std::move(on_fail), tctx});
  attempt(m, 0);
}

void ReliableChannel::attempt(const std::shared_ptr<Message>& m,
                              int attempt_no) {
  net_.send(m->from, m->to, m->bytes, [this, m] {
    // Receiver side. Run the handler only for the first copy; every copy
    // triggers an ack so the sender stops retransmitting. The insert-only
    // seen-set suppresses later copies, and final expiry poisons it (below)
    // so a copy arriving after the sender gave up — and rerouted the
    // payload — is suppressed too.
    if (!delivered_[m->to].insert(m->id).second) {
      ++per_host_[m->to].duplicates_suppressed;
    } else {
      m->deliver();
    }
    net_.send(m->to, m->from, cfg_.ack_bytes, [this, m] {
      if (m->resolved) return;
      m->resolved = true;
      ++per_host_[m->from].acked;
    });
  });
  const double deadline =
      cfg_.ack_timeout_ms * std::pow(cfg_.backoff, attempt_no);
  net_.simulator().schedule(deadline, [this, m, attempt_no] {
    if (m->resolved) return;
    if (!net_.alive(m->from)) {
      // Orphaned: the sender died while waiting. Nobody is left to retry
      // or reroute; resolve silently (running on_fail at a dead host would
      // resurrect processing there).
      m->resolved = true;
      return;
    }
    if (attempt_no < cfg_.max_retries) {
      ++per_host_[m->from].retries;
      if (auto* tr = trace::maybe(tracer_); tr && m->tctx.active()) {
        tr->point(m->tctx.trace, m->tctx.parent, trace::SpanKind::kRetry,
                  m->from, net_.simulator().now(),
                  std::uint64_t(attempt_no + 1));
      }
      attempt(m, attempt_no + 1);
      return;
    }
    m->resolved = true;
    ++per_host_[m->from].expired;
    // At-most-once across the reroute: the sender is about to resend the
    // payload through another hop, so a late-arriving copy of THIS message
    // must not also be processed: poison the receiver's seen-set.
    net_.simulator().schedule(
        0.0, [this, m] { delivered_[m->to].insert(m->id); });
    if (auto* tr = trace::maybe(tracer_); tr && m->tctx.active()) {
      tr->point(m->tctx.trace, m->tctx.parent, trace::SpanKind::kExpire,
                m->from, net_.simulator().now(), std::uint64_t(m->to));
    }
    if (m->on_fail) m->on_fail();
  });
}

}  // namespace hypersub::net
