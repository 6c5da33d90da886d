#pragma once
// Reliable messaging over the raw Network fabric: per-message ack, timeout,
// bounded retries with exponential backoff, and a reroute hook.
//
// Network::send is fire-and-forget — a message to a dead host silently
// vanishes, and whole delivery subtrees vanish with it. ReliableChannel
// layers the Scribe/Pastry-style substrate duty on top: every logical
// message is acked by the receiver; an unacked message is retransmitted up
// to `max_retries` times with exponentially growing deadlines; when every
// attempt expires the (still-live) sender's `on_fail` callback runs, so the
// caller can re-resolve the next hop (successor-list failover) instead of
// losing the payload.
//
// Delivery is at most once per logical message: a retransmission that races
// its predecessor is suppressed by a receiver-side seen-set. `on_fail` means
// that no ack came back by the last deadline, not that nothing arrived (see
// send()). Ack traffic is
// accounted through Network like every other message, so the bandwidth
// metrics see the true cost of reliability.

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/wire.hpp"
#include "net/network.hpp"
#include "trace/tracer.hpp"

namespace hypersub::net {

class ReliableChannel {
 public:
  struct Config {
    /// Ack deadline of the first attempt. Must exceed the worst-case RTT
    /// of the topology or live-but-slow peers get falsely suspected.
    double ack_timeout_ms = 1500.0;
    /// Deadline multiplier per retransmission (exponential backoff).
    double backoff = 2.0;
    /// Retransmissions after the first attempt; 2 means 3 attempts total.
    int max_retries = 2;
    /// Wire size of an ack (header-only message; overlay::kHeaderBytes).
    std::uint64_t ack_bytes = 20;
  };

  struct Stats {
    std::uint64_t sent = 0;     ///< logical messages submitted
    std::uint64_t acked = 0;    ///< confirmed delivered
    std::uint64_t retries = 0;  ///< retransmissions
    std::uint64_t expired = 0;  ///< all attempts exhausted (on_fail fired)
    std::uint64_t duplicates_suppressed = 0;  ///< redundant copies dropped
  };

  // Two overloads instead of `Config cfg = {}`: a default argument here
  // would be parsed before Config's member initializers are complete.
  explicit ReliableChannel(Network& net)
      : net_(net),
        per_host_(net.size()),
        send_ctr_(net.size(), 0),
        delivered_(net.size()) {}
  ReliableChannel(Network& net, Config cfg)
      : net_(net),
        cfg_(cfg),
        per_host_(net.size()),
        send_ctr_(net.size(), 0),
        delivered_(net.size()) {}

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  /// Send `bytes` from `from` to `to`; `deliver` runs at the destination
  /// at most once (retransmissions are deduplicated). If no ack has come
  /// back by the last attempt's deadline, `on_fail` runs at the sender —
  /// the reroute hook — unless the sender itself died meanwhile.
  ///
  /// `on_fail` means only that no ack came back in time: an ack can arrive
  /// after the last deadline, so the payload may already have been
  /// delivered and both callbacks can run for one message. Hence
  /// Config::ack_timeout_ms must exceed the topology's worst-case round
  /// trip, or a live peer is taken for dead and its payload handled twice:
  /// an event frame's reroute evicts a live next hop, and the
  /// LoadBalancer's rollback of a bucket handoff runs after the acceptor
  /// took the bucket (read from the code, not observed; DESIGN.md,
  /// "Reliable delivery under failure").
  ///
  /// Self-sends bypass the ack machinery (local delivery cannot fail).
  /// `tctx`, when active and a tracer is attached, causes retransmissions
  /// and final expiry to be recorded as retry/expire spans under the
  /// caller's span.
  void send(HostIndex from, HostIndex to, std::uint64_t bytes,
            std::function<void()> deliver,
            std::function<void()> on_fail = {},
            trace::TraceCtx tctx = {});

  /// Attach (or detach, with nullptr) the tracer retry/expire spans are
  /// recorded into. Not owned; must outlive the channel or be detached.
  void set_tracer(trace::Tracer* t) noexcept { tracer_ = t; }

  /// Aggregate counters, summed over all hosts at call time.
  Stats stats() const noexcept;
  /// Per-host counters: sent/acked/retries/expired belong to the sender,
  /// duplicates_suppressed to the receiver.
  const Stats& host_stats(HostIndex h) const { return per_host_[h]; }
  void reset_stats();
  const Config& config() const noexcept { return cfg_; }

  /// Checkpoint the per-host counters. The in-flight machinery (send
  /// counters, receiver dedup sets) is deliberately NOT saved: checkpoints
  /// are taken at quiescence, when nothing is in flight, and a restarted
  /// channel minting ids from zero behaves identically.
  void save_stats(common::ByteWriter& w) const {
    w.u32(std::uint32_t(per_host_.size()));
    for (const Stats& s : per_host_) {
      w.u64(s.sent);
      w.u64(s.acked);
      w.u64(s.retries);
      w.u64(s.expired);
      w.u64(s.duplicates_suppressed);
    }
  }
  void restore_stats(common::ByteReader& r) {
    const std::uint32_t n = r.u32();
    assert(n == per_host_.size());
    (void)n;
    for (Stats& s : per_host_) {
      s.sent = r.u64();
      s.acked = r.u64();
      s.retries = r.u64();
      s.expired = r.u64();
      s.duplicates_suppressed = r.u64();
    }
  }

 private:
  struct Message {
    HostIndex from;
    HostIndex to;
    std::uint64_t bytes;
    std::uint64_t id;
    std::function<void()> deliver;
    std::function<void()> on_fail;
    trace::TraceCtx tctx;
    /// Acked, expired, or orphaned (sender died).
    bool resolved = false;
  };

  void attempt(const std::shared_ptr<Message>& m, int attempt_no);

  Network& net_;
  Config cfg_;
  std::vector<Stats> per_host_;  ///< indexed by host
  trace::Tracer* tracer_ = nullptr;
  /// Per-sender id counters; ids are (sender+1) << 40 | counter, so they
  /// are globally unique.
  std::vector<std::uint64_t> send_ctr_;
  /// Per-receiver ids already delivered: dedupes retransmissions. Insert-
  /// only — ids are globally unique, so entries never need erasing.
  std::vector<std::unordered_set<std::uint64_t>> delivered_;
};

}  // namespace hypersub::net
