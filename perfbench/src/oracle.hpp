#pragma once
// Delivery oracle of the benchmark.
//
// OracleSink is the DeliverySink the benchmark installs. Instead of a
// delivery log it folds, per event sequence number, a count and an
// order-independent hash of the delivered (subscriber host, iid) pairs, so
// its memory is two words per publish however many deliveries a run makes.
// It also keeps a fixed-width latency histogram for the percentiles.
//
// BruteForce recomputes the same (count, hash) per event from the
// subscriptions live when the event was published, with a flat scan over
// every live range. Any difference is a wrong delivery multiset.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/delivery_sink.hpp"
#include "core/zone_state.hpp"
#include "pubsub/subscription.hpp"

namespace perfbench {

/// Hash of one delivered (subscriber, iid) pair; summed per event, so the
/// per-event value does not depend on delivery order.
inline std::uint64_t pair_hash(std::size_t host, std::uint32_t iid) {
  return hypersub::core::splitmix64((std::uint64_t(host) << 32) ^ iid ^
                                    0x5bd1e995ull);
}

/// Delivery multiset summary of one event.
struct EventDigest {
  std::uint32_t count = 0;
  std::uint64_t hash = 0;
  friend bool operator==(const EventDigest&, const EventDigest&) = default;
};

class OracleSink final : public hypersub::core::DeliverySink {
 public:
  /// Latency histogram resolution and range (simulated milliseconds).
  static constexpr double kBinMs = 0.05;
  static constexpr std::size_t kBins = 200000;  // 10 s

  /// Size the per-event table for sequence numbers 1..events.
  explicit OracleSink(std::size_t events)
      : per_event_(events), bins_(kBins, 0) {}

  void on_delivery(const hypersub::core::Delivery& d) override {
    ++deliveries_;
    if (d.event_seq == 0 || d.event_seq > per_event_.size()) {
      ++stray_;
    } else {
      EventDigest& e = per_event_[d.event_seq - 1];
      ++e.count;
      e.hash += pair_hash(d.subscriber, d.iid);
    }
    const auto bin = std::size_t(d.latency_ms / kBinMs);
    if (bin < kBins) ++bins_[bin];
    max_latency_ms_ = std::max(max_latency_ms_, d.latency_ms);
  }

  std::uint64_t deliveries() const noexcept { return deliveries_; }
  /// Deliveries whose sequence number no measured publish produced.
  std::uint64_t stray() const noexcept { return stray_; }
  const std::vector<EventDigest>& per_event() const noexcept {
    return per_event_;
  }

  /// Nearest-rank latency quantile: the upper edge of the bin holding the
  /// rank'th delivery (the exact maximum if it falls past the last bin).
  double latency_quantile(double q) const {
    if (deliveries_ == 0) return 0.0;
    const auto rank = std::uint64_t(q * double(deliveries_ - 1)) + 1;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBins; ++b) {
      seen += bins_[b];
      if (seen >= rank) return double(b + 1) * kBinMs;
    }
    return max_latency_ms_;
  }

  /// Digest of the whole run: every event's (count, hash) in sequence order.
  std::uint64_t digest() const {
    std::uint64_t h = 0x243f6a8885a308d3ull;
    for (const EventDigest& e : per_event_) {
      h = hypersub::core::splitmix64(h ^ e.count);
      h = hypersub::core::splitmix64(h ^ e.hash);
    }
    return h;
  }

 private:
  std::vector<EventDigest> per_event_;
  std::vector<std::uint32_t> bins_;
  std::uint64_t deliveries_ = 0;
  std::uint64_t stray_ = 0;
  double max_latency_ms_ = 0.0;
};

/// Flat brute-force matcher over a mutable set of live subscriptions.
class BruteForce {
 public:
  explicit BruteForce(std::size_t dims) : dims_(dims) {}

  /// Add a live subscription; returns its slot (stable until removed).
  std::size_t add(std::size_t host, std::uint32_t iid,
                  const hypersub::pubsub::Subscription& sub) {
    const std::size_t slot = hosts_.size();
    hosts_.push_back(host);
    iids_.push_back(iid);
    for (std::size_t d = 0; d < dims_; ++d) {
      bounds_.push_back(sub.range().dim(d).lo);
      bounds_.push_back(sub.range().dim(d).hi);
    }
    return slot;
  }

  /// Remove the subscription in `slot` by moving the last one into it;
  /// returns the old slot of the moved subscription (== slot if it was
  /// the last).
  std::size_t remove(std::size_t slot) {
    const std::size_t last = hosts_.size() - 1;
    hosts_[slot] = hosts_[last];
    iids_[slot] = iids_[last];
    std::copy_n(bounds_.begin() + std::ptrdiff_t(last * 2 * dims_),
                2 * dims_, bounds_.begin() + std::ptrdiff_t(slot * 2 * dims_));
    hosts_.pop_back();
    iids_.pop_back();
    bounds_.resize(last * 2 * dims_);
    return last;
  }

  EventDigest match(const hypersub::Point& p) const {
    EventDigest e;
    const double* b = bounds_.data();
    for (std::size_t i = 0; i < hosts_.size(); ++i, b += 2 * dims_) {
      bool in = true;
      for (std::size_t d = 0; d < dims_ && in; ++d) {
        in = b[2 * d] <= p[d] && p[d] <= b[2 * d + 1];
      }
      if (in) {
        ++e.count;
        e.hash += pair_hash(hosts_[i], iids_[i]);
      }
    }
    return e;
  }

 private:
  std::size_t dims_;
  std::vector<std::size_t> hosts_;
  std::vector<std::uint32_t> iids_;
  std::vector<double> bounds_;  // per sub: lo0, hi0, lo1, hi1, ...
};

}  // namespace perfbench
