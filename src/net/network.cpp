#include "net/network.hpp"

#include <cassert>
#include <utility>

namespace hypersub::net {

Network::Network(sim::Simulator& sim, const Topology& topo)
    : sim_(sim),
      topo_(topo),
      traffic_(topo.size()),
      alive_(topo.size(), true) {
  sim_.add_merge_hook([this] { fold_deltas(); });
}

void Network::account_send(HostIndex from, HostIndex to, std::uint64_t bytes) {
  if (sim_.in_worker_context()) {
    SlotDelta& d = deltas_[sim_.worker_slot()];
    HostTraffic out;
    out.bytes_out = bytes;
    out.msgs_out = 1;
    HostTraffic in;
    in.bytes_in = bytes;
    in.msgs_in = 1;
    d.items.emplace_back(from, out);
    d.items.emplace_back(to, in);
    ++d.total_messages;
    d.total_bytes += bytes;
    return;
  }
  traffic_[from].bytes_out += bytes;
  traffic_[from].msgs_out += 1;
  traffic_[to].bytes_in += bytes;
  traffic_[to].msgs_in += 1;
  ++total_messages_;
  total_bytes_ += bytes;
}

void Network::account_drop() {
  if (sim_.in_worker_context()) {
    ++deltas_[sim_.worker_slot()].dropped;
  } else {
    ++dropped_;
  }
}

void Network::fold_deltas() {
  for (SlotDelta& d : deltas_) {
    for (const auto& [h, t] : d.items) {
      traffic_[h].bytes_in += t.bytes_in;
      traffic_[h].bytes_out += t.bytes_out;
      traffic_[h].msgs_in += t.msgs_in;
      traffic_[h].msgs_out += t.msgs_out;
    }
    d.items.clear();
    total_messages_ += d.total_messages;
    total_bytes_ += d.total_bytes;
    dropped_ += d.dropped;
    d.total_messages = 0;
    d.total_bytes = 0;
    d.dropped = 0;
  }
}

bool Network::admit(HostIndex from, HostIndex to, std::uint64_t bytes) {
  if (!alive_[to] || !alive_[from]) {
    account_drop();
    return false;
  }
  account_send(from, to, bytes);
  return true;
}

double Network::wire_delay(HostIndex from, HostIndex to) const {
  // The destination's shard executes the delivery (the handler touches the
  // receiver's state). Conservative mode additionally clamps the delay to
  // the lookahead so cross-shard messages never land inside the sending
  // window — with a lookahead at or below the minimum link latency this
  // changes nothing at all.
  const double delay = topo_.latency(from, to);
  const double floor = sim_.effective_lookahead();
  return delay < floor ? floor : delay;
}

void Network::kill(HostIndex h) {
  assert(h < alive_.size());
  alive_[h] = false;
  refresh_lookahead_floor();
}

void Network::revive(HostIndex h) {
  assert(h < alive_.size());
  alive_[h] = true;
  refresh_lookahead_floor();
}

void Network::enable_adaptive_lookahead() {
  adaptive_lookahead_ = true;
  refresh_lookahead_floor();
}

void Network::refresh_lookahead_floor() {
  if (!adaptive_lookahead_) return;
  sim_.set_lookahead_floor(topo_.min_latency_bound(alive_));
}

void Network::reset_traffic() {
  for (auto& t : traffic_) t = HostTraffic{};
  total_messages_ = 0;
  total_bytes_ = 0;
  dropped_ = 0;
}

void Network::save_state(common::ByteWriter& w) const {
  w.u32(std::uint32_t(alive_.size()));
  for (std::size_t h = 0; h < alive_.size(); ++h) {
    w.boolean(alive_[h]);
    const HostTraffic& t = traffic_[h];
    w.u64(t.bytes_in);
    w.u64(t.bytes_out);
    w.u64(t.msgs_in);
    w.u64(t.msgs_out);
  }
  w.u64(total_messages_);
  w.u64(total_bytes_);
  w.u64(dropped_);
}

void Network::restore_state(common::ByteReader& r) {
  const std::uint32_t n = r.u32();
  assert(n == alive_.size());
  (void)n;
  for (std::size_t h = 0; h < alive_.size(); ++h) {
    alive_[h] = r.boolean();
    HostTraffic& t = traffic_[h];
    t.bytes_in = r.u64();
    t.bytes_out = r.u64();
    t.msgs_in = r.u64();
    t.msgs_out = r.u64();
  }
  total_messages_ = r.u64();
  total_bytes_ = r.u64();
  dropped_ = r.u64();
  refresh_lookahead_floor();
}

}  // namespace hypersub::net
