// Self-tests of the benchmark's own machinery:
//   * CountingOverlay forwards every overlay::Overlay virtual to the
//     wrapped ChordNet (call by call, and end to end: a traced run through
//     the decorator reproduces the untraced run's digests);
//   * the delivery oracle flags a run in which one delivery was dropped.
// Exits 0 when every check passes. Run through `python3 perfbench/run.py
// --selftest`.

#include <cstdio>
#include <vector>

#include "bench.hpp"
#include "chord/chord_net.hpp"
#include "common/rng.hpp"
#include "counting_overlay.hpp"
#include "net/topology.hpp"

namespace {

using namespace hypersub;

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<std::uint8_t> saved(const overlay::Overlay& o) {
  common::ByteWriter w;
  o.save_state(w);
  return w.data();
}

void decorator_forwards_calls() {
  net::KingLikeTopology::Params tp;
  tp.hosts = 48;
  net::KingLikeTopology topo(tp);
  sim::Simulator sim;
  net::Network net(sim, topo);
  chord::ChordNet chord(net, chord::ChordNet::Params{});
  perfbench::CountingOverlay dec(chord);
  dec.build(1);
  check(dec.counters().build_s > 0.0, "build forwards and is timed");
  check(saved(dec) == saved(chord) && !saved(chord).empty(),
        "save_state forwards");
  check(dec.oracle_owner_table() == chord.oracle_owner_table(),
        "oracle_owner_table forwards");
  check(&dec.network() == &net && dec.size() == chord.size(),
        "network and size forward");

  Rng rng(7);
  bool same = true;
  for (net::HostIndex h = 0; h < chord.size(); ++h) {
    same = same && dec.id_of(h) == chord.id_of(h) &&
           dec.neighbors(h) == chord.neighbors(h) &&
           dec.replica_set(h, 3) == chord.replica_set(h, 3);
    for (int k = 0; k < 8; ++k) {
      const Id key = rng.next_u64();
      same = same && dec.owns(h, key) == chord.owns(h, key) &&
             dec.next_hop(h, key) == chord.next_hop(h, key);
    }
  }
  check(same, "id_of, neighbors, replica_set, owns and next_hop forward");
  check(dec.counters().owns_calls == 8 * chord.size() &&
            dec.counters().next_hop_calls == 8 * chord.size(),
        "owns and next_hop are counted");

  const Id key = rng.next_u64();
  overlay::Peer owner;
  dec.route(0, key, 0, [&](const overlay::Overlay::RouteResult& r) {
    owner = r.owner;
  });
  sim.run();
  check(owner == chord.oracle_successor(key) && dec.counters().route_calls == 1,
        "route forwards, reaches the owner and is counted");

  // restore_state forwards: restoring the saved image reproduces it.
  const auto image = saved(chord);
  common::ByteReader rd(image);
  dec.restore_state(rd);
  check(saved(chord) == image, "restore_state forwards");

  // note_peer_failure forwards, and the ownership change it causes inside
  // the wrapped substrate is re-fired to the decorator's listener: the
  // successor of a failed node adopts the failed node's predecessor.
  int fired = 0;
  dec.set_ownership_listener([&](net::HostIndex) { ++fired; });
  const net::HostIndex failed = 9;
  const net::HostIndex heir = chord.node(failed).successor_list().front().host;
  const net::HostIndex pred = chord.node(failed).predecessor().host;
  dec.note_peer_failure(heir, failed, pred);
  check(chord.node(heir).predecessor().host == pred && fired > 0,
        "note_peer_failure forwards and ownership changes re-fire");

  // join and leave forward (Chord supports both; the default refuses).
  check(dec.leave(5, {}) && dec.join(31, 0, {}), "join and leave forward");
}

void traced_run_reproduces_digests() {
  const perfbench::Spec* spec = perfbench::find_spec("smoke");
  perfbench::Options plain;
  perfbench::Options traced;
  traced.traced = true;
  const auto a = perfbench::run_workload(*spec, 3, plain);
  const auto b = perfbench::run_workload(*spec, 3, traced);
  check(a.failed == 0 && a.attempted > 0, "smoke run delivers correctly");
  check(a.snapshot_digest == b.snapshot_digest &&
            a.delivery_digest == b.delivery_digest &&
            a.zone_digest == b.zone_digest,
        "traced run (decorator + replays) reproduces the digests");
  check(!b.per_layer.empty() && a.per_layer.empty(),
        "only the traced run reports per-layer metrics");

  // The same configuration without writes runs as one open-loop feed.
  perfbench::Spec feed = *spec;
  feed.writes_per_round = 0;
  feed.warmup_ms = 500.0;
  const auto c = perfbench::run_workload(feed, 3, plain);
  const auto d = perfbench::run_workload(feed, 3, traced);
  check(c.failed == 0 && c.attempted > feed.rounds * feed.pubs_per_round &&
            c.end_to_end[1].name == "ops_per_s" && c.end_to_end[1].value > 0,
        "open-loop feed delivers correctly and reports a rate");
  check(c.snapshot_digest == d.snapshot_digest &&
            c.delivery_digest == d.delivery_digest &&
            c.zone_digest == d.zone_digest,
        "traced open-loop run reproduces the digests");
}

void oracle_flags_a_dropped_delivery() {
  const perfbench::Spec* spec = perfbench::find_spec("smoke");
  perfbench::Options drop;
  drop.drop_delivery = 17;
  const auto r = perfbench::run_workload(*spec, 3, drop);
  check(r.failed == 1, "oracle flags exactly the publish that lost a delivery");
}

}  // namespace

int main() {
  decorator_forwards_calls();
  traced_run_reproduces_digests();
  oracle_flags_a_dropped_delivery();
  std::printf("%s\n", failures ? "SELFTEST FAILED" : "selftest passed");
  return failures ? 1 : 0;
}
