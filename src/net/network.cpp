#include "net/network.hpp"

#include <cassert>

namespace hypersub::net {

Network::Network(sim::Simulator& sim, const Topology& topo)
    : sim_(sim),
      topo_(topo),
      traffic_(topo.size()),
      alive_(topo.size(), true) {}

bool Network::admit(HostIndex from, HostIndex to, std::uint64_t bytes) {
  if (!alive_[to] || !alive_[from]) {
    account_drop();
    return false;
  }
  traffic_[from].bytes_out += bytes;
  traffic_[from].msgs_out += 1;
  traffic_[to].bytes_in += bytes;
  traffic_[to].msgs_in += 1;
  ++total_messages_;
  total_bytes_ += bytes;
  return true;
}

void Network::kill(HostIndex h) {
  assert(h < alive_.size());
  alive_[h] = false;
}

void Network::revive(HostIndex h) {
  assert(h < alive_.size());
  alive_[h] = true;
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
}

}  // namespace hypersub::net
