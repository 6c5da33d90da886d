#pragma once
// Packet-level message delivery with per-node byte accounting.
//
// Every overlay RPC in the system flows through Network::send so that the
// evaluation's bandwidth metrics (total bytes per event, in/out bytes per
// node) fall out of one accounting point. Latency of a message equals the
// topology's one-way delay between the two hosts; host-local processing is
// treated as free, matching the paper's packet-level model.
//
// Per-message cost: send() is a template, so the handler's own closure type
// is stored (inside Network::Delivery) directly in the scheduler's sim::Task:
// one type erasure, and no heap allocation while the two fit Task's inline
// buffer (the event-frame handler does; tests/test_sim.cpp pins it).

#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/wire.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace hypersub::net {

/// Per-host traffic counters, reset-able between measurement phases.
struct HostTraffic {
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t msgs_in = 0;
  std::uint64_t msgs_out = 0;
};

/// Message fabric over a Topology + Simulator. Hosts are dense indices; the
/// overlay layer (Chord) maps ring ids onto hosts.
class Network {
 public:
  /// Neither `sim` nor `topo` is owned; both must outlive the Network.
  Network(sim::Simulator& sim, const Topology& topo);

  std::size_t size() const noexcept { return alive_.size(); }
  sim::Simulator& simulator() noexcept { return sim_; }
  const Topology& topology() const noexcept { return topo_; }

  /// The action scheduled for one remote message: runs `handler` on
  /// arrival unless the destination died in flight, in which case the
  /// message counts as dropped. Stored by value in the scheduler's
  /// sim::Task, so the handler's closure is never type-erased twice.
  template <class F>
  struct Delivery {
    Network* net;
    HostIndex to;
    F handler;

    void operator()() {
      if (net->alive_[to]) {
        handler();
      } else {
        net->account_drop();
      }
    }
  };

  /// Deliver `handler` (any move-constructible `void()` callable) at the
  /// destination after the one-way latency. Accounts `bytes` against both
  /// endpoints. Messages to self run at the current time without traffic
  /// accounting.
  /// Messages to or from dead hosts are dropped (counted in dropped()), and
  /// so are messages whose destination dies before they arrive.
  template <class F>
  void send(HostIndex from, HostIndex to, std::uint64_t bytes, F&& handler) {
    assert(from < alive_.size() && to < alive_.size());
    if (from == to) {
      sim_.schedule(0.0, std::forward<F>(handler));
      return;
    }
    if (!admit(from, to, bytes)) return;
    sim_.schedule(topo_.latency(from, to),
                  Delivery<std::decay_t<F>>{this, to,
                                            std::forward<F>(handler)});
  }

  /// Mark a host dead; future messages to it are dropped (failure injection).
  void kill(HostIndex h);
  /// Revive a host.
  void revive(HostIndex h);
  bool alive(HostIndex h) const { return alive_[h]; }

  const HostTraffic& traffic(HostIndex h) const { return traffic_[h]; }
  /// Zero all traffic counters (e.g., after warm-up/stabilization).
  void reset_traffic();

  std::uint64_t total_messages() const noexcept { return total_messages_; }
  std::uint64_t total_bytes() const noexcept { return total_bytes_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Checkpoint liveness + traffic counters. Call only at quiescence (no
  /// in-flight messages).
  void save_state(common::ByteWriter& w) const;
  void restore_state(common::ByteReader& r);

 private:
  /// Liveness check + traffic accounting of a remote send; false when the
  /// message is dropped.
  bool admit(HostIndex from, HostIndex to, std::uint64_t bytes);
  void account_drop() noexcept { ++dropped_; }

  sim::Simulator& sim_;
  const Topology& topo_;
  std::vector<HostTraffic> traffic_;
  std::vector<bool> alive_;
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace hypersub::net
