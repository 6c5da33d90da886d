// Quickstart: bring up a small HyperSub network, subscribe, publish, and
// watch deliveries arrive.
//
//   $ ./examples/quickstart
//
// Walks through the whole public API surface: topology → network → Chord →
// HyperSubSystem → scheme → subscription handles → a delivery sink →
// unsubscribe → metrics snapshot.

#include <cstdio>
#include <vector>

#include "chord/chord_net.hpp"
#include "core/delivery_sink.hpp"
#include "core/hypersub_system.hpp"
#include "metrics/snapshot.hpp"
#include "net/topology.hpp"
#include "pubsub/subscription.hpp"

int main() {
  using namespace hypersub;

  // 1. A 64-host Internet-like network and its discrete-event simulator.
  net::KingLikeTopology::Params tp;
  tp.hosts = 64;
  net::KingLikeTopology topo(tp);
  sim::Simulator simulator;
  net::Network network(simulator, topo);

  // 2. A Chord ring over the hosts (with proximity neighbor selection).
  chord::ChordNet chord(network, {});

  // 3. The pub/sub service and a stock-quote scheme. The overlay is
  //    oracle-built by the system (BootstrapMode::kOracle); the publish
  //    fast lane (rendezvous route cache + frame batching) is on by
  //    request.
  core::HyperSubSystem::Config cfg;
  cfg.bootstrap = core::BootstrapMode::kOracle;
  cfg.route_cache = true;
  cfg.batch_forwarding = true;
  core::HyperSubSystem hypersub(chord, cfg);
  pubsub::Scheme quotes("quotes", {
                                      {"price", {0.0, 1000.0}},
                                      {"volume", {0.0, 1e6}},
                                  });
  core::SchemeOptions opts;
  opts.zone_cfg = lph::ZoneSystem::Config::for_dims(quotes.arity());
  const auto scheme = hypersub.add_scheme(quotes, opts);

  // 4. Node 7 wants cheap high-volume quotes; node 13 wants a price band.
  //    subscribe() returns a handle that identifies the subscription.
  core::SubscriptionHandle cheap_high_volume;
  {
    const pubsub::Predicate preds[] = {{0, {0.0, 150.0}},
                                       {1, {500000.0, 1e6}}};
    cheap_high_volume = hypersub.subscribe(
        7, scheme, pubsub::Subscription::from_predicates(quotes, preds));
  }
  {
    const pubsub::Predicate preds[] = {{0, {100.0, 300.0}}};
    hypersub.subscribe(13, scheme,
                       pubsub::Subscription::from_predicates(quotes, preds));
  }
  simulator.run();  // let the installations settle

  // 5. Deliveries go to the system's delivery sink. This callback sink
  //    prints each notification as it lands on a subscriber and keeps a
  //    log of them.
  auto announce = [](const core::Delivery& d) {
    std::printf("  event #%llu -> node %zu (sub iid=%u) after %d hops,"
                " %.1f ms\n",
                (unsigned long long)d.event_seq, d.subscriber, d.iid, d.hops,
                d.latency_ms);
  };
  std::vector<core::Delivery> log;
  core::CallbackDeliverySink sink([&](const core::Delivery& d) {
    announce(d);
    log.push_back(d);
  });
  hypersub.set_delivery_sink(sink);

  // 6. Node 42 publishes three quotes.
  hypersub.publish(42, scheme,
                   pubsub::Event{0, {120.0, 750000.0}});  // matches both
  hypersub.publish(42, scheme,
                   pubsub::Event{0, {120.0, 1000.0}});  // matches node 13 only
  hypersub.publish(42, scheme,
                   pubsub::Event{0, {900.0, 750000.0}});  // matches none
  simulator.run();
  hypersub.finalize_events();

  // 7. The handle tears the subscription down again.
  hypersub.unsubscribe(cheap_high_volume);
  simulator.run();
  hypersub.publish(42, scheme, pubsub::Event{0, {120.0, 750000.0}});
  simulator.run();
  hypersub.finalize_events();

  // 8. The delivery log, and metrics::snapshot(), which bundles every
  //    counter the system tracks.
  std::printf("delivery log (%zu rows):\n", log.size());
  for (const auto& d : log) announce(d);
  const auto snap = metrics::snapshot(hypersub);
  std::printf("snapshot: %s\n", snap.to_json().c_str());
  return 0;
}
