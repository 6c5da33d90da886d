#pragma once
// DeliverySink: where completed event deliveries go. Tests and examples
// want every delivery recorded (VectorDeliverySink); large experiment runs
// only need counts (CountingDeliverySink); examples can observe deliveries
// as they happen (CallbackDeliverySink). The system owns a
// VectorDeliverySink by default, so `deliveries()` keeps working out of the
// box.

#include <cstdint>
#include <functional>
#include <vector>

#include "net/topology.hpp"

namespace hypersub::core {

/// One completed delivery of an event to a subscriber (observability).
struct Delivery {
  std::uint64_t event_seq = 0;
  net::HostIndex subscriber = 0;
  std::uint32_t iid = 0;
  int hops = 0;            ///< overlay hops the event travelled to get here
  double latency_ms = 0.0; ///< publish -> delivery
};

/// Pluggable consumer of deliveries.
class DeliverySink {
 public:
  virtual ~DeliverySink() = default;
  virtual void on_delivery(const Delivery& d) = 0;
  /// Clear accumulated state (called by HyperSubSystem::reset_metrics).
  virtual void reset() {}
};

/// Records every delivery (tests, small examples). Unbounded — prefer
/// CountingDeliverySink for large runs.
class VectorDeliverySink final : public DeliverySink {
 public:
  void on_delivery(const Delivery& d) override { rows_.push_back(d); }
  void reset() override { rows_.clear(); }
  const std::vector<Delivery>& rows() const noexcept { return rows_; }

 private:
  std::vector<Delivery> rows_;
};

/// Counts deliveries without storing them (large runs).
class CountingDeliverySink final : public DeliverySink {
 public:
  void on_delivery(const Delivery&) override { ++count_; }
  void reset() override { count_ = 0; }
  std::uint64_t count() const noexcept { return count_; }

 private:
  std::uint64_t count_ = 0;
};

/// Forwards each delivery to a user callback (examples).
class CallbackDeliverySink final : public DeliverySink {
 public:
  using Callback = std::function<void(const Delivery&)>;
  explicit CallbackDeliverySink(Callback cb) : cb_(std::move(cb)) {}
  void on_delivery(const Delivery& d) override { cb_(d); }

 private:
  Callback cb_;
};

}  // namespace hypersub::core
