#include "core/hypersub_system.hpp"

#include <memory>
#include <utility>

namespace hypersub::core {

HyperSubSystem::HyperSubSystem(overlay::Overlay& dht, Config cfg)
    : dht_(dht), cfg_(cfg), channel_(dht.network(), cfg.reliable) {
  nodes_.reserve(dht.size());
  caches_.reserve(dht.size());
  for (net::HostIndex h = 0; h < dht.size(); ++h) {
    nodes_.push_back(std::make_unique<HyperSubNode>(
        h, dht.id_of(h), schemes_, cfg_.match_index_threshold,
        cfg_.cover_aggregation));
    caches_.push_back(std::make_unique<RouteCache>());
  }
  batches_.resize(dht.size());
  delivered_subs_.resize(dht.size());
  transfers_out_.resize(dht.size());
  warm_.resize(dht.size());
  event_metrics_.set_streaming(cfg_.stream_event_metrics);
  if (cfg_.bootstrap == BootstrapMode::kOracle) {
    // Setup, not a runtime flip: build before the ownership listener goes
    // in so the initial table construction does not spam invalidations.
    dht_.build(cfg_.build_threads);
  }
  if (cfg_.route_cache) {
    // Coherence hook: when a node's owned key range moves (stabilization,
    // failure repair, oracle rebuild), cached resolutions pointing at it
    // may now land on a non-owner. Stale hits would still self-repair via
    // forward-and-correct; invalidating eagerly keeps the detour window
    // small and the hit counters honest.
    dht_.set_ownership_listener([this](net::HostIndex h) {
      for (auto& c : caches_) c->invalidate_host(h);
    });
    owns_ownership_listener_ = true;
  }
}

HyperSubSystem::~HyperSubSystem() {
  if (owns_ownership_listener_) dht_.set_ownership_listener({});
}

std::uint32_t HyperSubSystem::add_scheme(pubsub::Scheme scheme,
                                         const SchemeOptions& opt) {
  schemes_.push_back(
      std::make_unique<SchemeRuntime>(std::move(scheme), opt));
  return std::uint32_t(schemes_.size() - 1);
}

}  // namespace hypersub::core
