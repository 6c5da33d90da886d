#pragma once
// CountingOverlay: a forwarding overlay::Overlay decorator that counts and
// times the calls the pub/sub core makes into the DHT layer.
//
// HyperSubSystem is written against overlay::Overlay, so wrapping ChordNet
// in this class measures the overlay's share of a run from outside the
// program: every virtual forwards unchanged to the wrapped substrate, and
// the wrapped substrate's ownership notifications are re-fired to whoever
// listens on the decorator. A run through the decorator must therefore
// produce the same digests as a run on the bare substrate (the benchmark
// checks this on every traced run, and the self-test checks it on a small
// configuration).

#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "overlay/overlay.hpp"

namespace perfbench {

class CountingOverlay final : public hypersub::overlay::Overlay {
 public:
  /// Calls made through the decorator and the wall time spent inside them.
  struct Counters {
    std::uint64_t next_hop_calls = 0;
    double next_hop_s = 0.0;
    std::uint64_t owns_calls = 0;
    double owns_s = 0.0;
    std::uint64_t route_calls = 0;
    double build_s = 0.0;
  };

  explicit CountingOverlay(hypersub::overlay::Overlay& inner) : inner_(inner) {
    inner_.set_ownership_listener(
        [this](hypersub::net::HostIndex h) { notify_ownership_changed(h); });
  }
  ~CountingOverlay() override { inner_.set_ownership_listener({}); }

  CountingOverlay(const CountingOverlay&) = delete;
  CountingOverlay& operator=(const CountingOverlay&) = delete;

  const Counters& counters() const noexcept { return c_; }
  void reset_counters() { c_ = Counters{}; }

  std::size_t size() const override { return inner_.size(); }
  hypersub::Id id_of(hypersub::net::HostIndex h) const override {
    return inner_.id_of(h);
  }
  hypersub::net::Network& network() override { return inner_.network(); }

  bool owns(hypersub::net::HostIndex h, hypersub::Id key) const override {
    const auto t0 = Clock::now();
    const bool r = inner_.owns(h, key);
    c_.owns_s += seconds_since(t0);
    ++c_.owns_calls;
    return r;
  }

  hypersub::overlay::Peer next_hop(hypersub::net::HostIndex h,
                                   hypersub::Id key) const override {
    const auto t0 = Clock::now();
    const hypersub::overlay::Peer r = inner_.next_hop(h, key);
    c_.next_hop_s += seconds_since(t0);
    ++c_.next_hop_calls;
    return r;
  }

  void route(hypersub::net::HostIndex from, hypersub::Id key,
             std::uint64_t extra_bytes, RouteCallback cb) override {
    ++c_.route_calls;
    inner_.route(from, key, extra_bytes, std::move(cb));
  }

  std::vector<hypersub::overlay::Peer> neighbors(
      hypersub::net::HostIndex h) const override {
    return inner_.neighbors(h);
  }
  void note_app_contact(hypersub::net::HostIndex at,
                        hypersub::Id peer) override {
    inner_.note_app_contact(at, peer);
  }
  void note_peer_failure(hypersub::net::HostIndex at,
                         hypersub::net::HostIndex failed,
                         hypersub::net::HostIndex via) override {
    inner_.note_peer_failure(at, failed, via);
  }
  std::vector<hypersub::overlay::Peer> replica_set(
      hypersub::net::HostIndex h, std::size_t k) const override {
    return inner_.replica_set(h, k);
  }

  void build(unsigned threads) override {
    const auto t0 = Clock::now();
    inner_.build(threads);
    c_.build_s += seconds_since(t0);
  }
  bool join(hypersub::net::HostIndex host, hypersub::net::HostIndex bootstrap,
            std::function<void()> on_joined) override {
    return inner_.join(host, bootstrap, std::move(on_joined));
  }
  bool leave(hypersub::net::HostIndex host,
             std::function<void()> on_left) override {
    return inner_.leave(host, std::move(on_left));
  }

  void save_state(hypersub::common::ByteWriter& w) const override {
    inner_.save_state(w);
  }
  void restore_state(hypersub::common::ByteReader& r) override {
    inner_.restore_state(r);
  }
  std::vector<hypersub::overlay::Peer> oracle_owner_table() const override {
    return inner_.oracle_owner_table();
  }
  void set_tracer(hypersub::trace::Tracer* t) override { inner_.set_tracer(t); }

 private:
  using Clock = std::chrono::steady_clock;
  static double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  hypersub::overlay::Overlay& inner_;
  mutable Counters c_;
};

}  // namespace perfbench
