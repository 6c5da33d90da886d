#include "core/hypersub_system.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include <utility>
#include <variant>

#include "core/state_wire.hpp"

namespace hypersub::core {

// ---------------------------------------------------------------------------
// Node lifecycle: protocol join/leave with live state transfer.
//
// Join: the joiner enters the ring via the overlay's join protocol, then
// "warms" — it buffers everything addressed to it — while pulling a snapshot
// of the moved zones from the current owner. The owner keeps serving and
// write-behind-queues every in-range mutation; a periodic tick ships the
// queue and, once stabilization flips ownership to the joiner, sends a
// commit that flushes the warm buffers and retires the owner's copies.
//
// Leave: the same machinery inverted — the leaver pushes its whole zone set
// to its successor, drains the queue, bridges late arrivals, then splices
// out of the ring and dies.

namespace {

/// Deterministic zone ordering for transfer images: by rotated key, then
/// address (map iteration order is not stable across runs).
bool zone_order(const std::pair<Id, ZoneAddr>& x,
                const std::pair<Id, ZoneAddr>& y) {
  if (x.first != y.first) return x.first < y.first;
  const ZoneAddr& a = x.second;
  const ZoneAddr& b = y.second;
  if (a.scheme != b.scheme) return a.scheme < b.scheme;
  if (a.subscheme != b.subscheme) return a.subscheme < b.subscheme;
  if (a.zone.level != b.zone.level) return a.zone.level < b.zone.level;
  return a.zone.code < b.zone.code;
}

}  // namespace

bool HyperSubSystem::transfer_moves(const TransferOut& t, Id key) {
  if (t.leaving) return true;
  // Successor geometry: after the flip the old owner keeps (joiner, self];
  // every other key it held belongs to the joiner.
  const Id a = t.target_id;
  const Id b = t.my_id;
  const bool keeps = a < b ? (key > a && key <= b) : (key > a || key <= b);
  return !keeps;
}

Id HyperSubSystem::zone_key_of(const ZoneAddr& addr) const {
  return schemes_[addr.scheme]->subscheme(addr.subscheme).zone_key(addr.zone);
}

std::vector<std::pair<Id, ZoneAddr>> HyperSubSystem::zones_in_order(
    net::HostIndex host, bool saturated) const {
  const ZoneStore& store = nodes_[host]->primary();
  std::vector<std::pair<Id, ZoneAddr>> out;
  out.reserve(store.zones().size() + (saturated ? store.saturated_count() : 0));
  for (const auto& [addr, zone] : store.zones()) {
    out.emplace_back(zone_key_of(addr), addr);
  }
  if (saturated) {
    store.for_each_saturated(
        [&](const ZoneAddr& addr, Id key) { out.emplace_back(key, addr); });
  }
  std::sort(out.begin(), out.end(), zone_order);
  return out;
}

std::vector<std::uint8_t> HyperSubSystem::serialize_moved_zones(
    net::HostIndex owner, const TransferOut& t,
    std::uint32_t* moved_entries) const {
  const HyperSubNode& nd = *nodes_[owner];
  std::vector<std::pair<Id, ZoneAddr>> moved = zones_in_order(owner);
  std::erase_if(moved, [&](const auto& kz) {
    return !transfer_moves(t, kz.first);
  });
  common::ByteWriter w;
  w.u32(std::uint32_t(moved.size()));
  for (const auto& [key, addr] : moved) {
    w.u64(key);
    save_zone_addr(w, addr);
    nd.zones().at(addr).save(w);
  }
  // Saturated zones ship as whole-key rows: a key moves as a whole.
  const std::size_t saturated = nd.primary().save_saturated(
      w, [&](Id key) { return transfer_moves(t, key); });
  if (moved_entries != nullptr) {
    *moved_entries = std::uint32_t(moved.size() + saturated);
  }
  return w.take();
}

void HyperSubSystem::install_transferred_zones(net::HostIndex host,
                                               common::ByteReader& r) {
  HyperSubNode& nd = *nodes_[host];
  // The shipped image is authoritative: it supersedes any primary leftover
  // from a past life and the replica copy of the same zone.
  const auto clear = [&nd](const ZoneAddr& addr, Id key) {
    for (ZoneStore* store : {&nd.primary(), &nd.replicas()}) {
      store->erase_zone(addr, key);
      store->clear_saturated(addr);
    }
  };
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const Id key = r.u64();
    const ZoneAddr addr = load_zone_addr(r);
    clear(addr, key);
    nd.primary().zone_state(addr, key).restore(r);
  }
  const std::uint32_t n_rows = r.u32();
  for (std::uint32_t i = 0; i < n_rows; ++i) {
    const std::uint32_t scheme = r.u32();
    const std::uint32_t ssi = r.u32();
    const Id key = r.u64();
    const std::uint64_t mask = r.u64();
    const Subscheme& ss = schemes_[scheme]->subscheme(ssi);
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
      const ZoneAddr addr{scheme, ssi, ss.zone_at(key, std::countr_zero(m))};
      clear(addr, key);
      nd.primary().set_saturated(addr);
    }
  }
}

void HyperSubSystem::reseed_replicas(net::HostIndex owner, const ZoneAddr& addr,
                                     Id key) {
  if (cfg_.replicas == 0) return;
  const ZoneStore& primary = nodes_[owner]->primary();
  const auto it = primary.zones().find(addr);
  const bool saturated = it == primary.zones().end();
  if (saturated && !primary.saturated(addr)) return;
  // One full image, replacing (not merging into) each heir's copy — the
  // write-behind replays are replica-blind, so merge would drift. A
  // saturated zone's image is empty: the heirs saturate it.
  auto image = std::make_shared<std::vector<std::uint8_t>>();
  if (!saturated) {
    common::ByteWriter w;
    it->second.save(w);
    *image = w.take();
  }
  const std::uint64_t bytes = overlay::kHeaderBytes + image->size();
  std::uint64_t sent = 0;
  for (const auto& peer : dht_.replica_set(owner, cfg_.replicas)) {
    if (peer.host == owner || !network().alive(peer.host)) continue;
    sent += bytes;
    network().send(owner, peer.host, bytes,
                   [this, host = peer.host, addr, key, image, saturated] {
                     ZoneStore& rs = nodes_[host]->replicas();
                     rs.erase_zone(addr, key);
                     rs.clear_saturated(addr);
                     if (saturated) {
                       rs.set_saturated(addr);
                       return;
                     }
                     common::ByteReader r(*image);
                     rs.zone_state(addr, key).restore(r);
                   });
  }
  join_stats_.transfer_bytes += sent;
}

void HyperSubSystem::join_node(net::HostIndex host, net::HostIndex bootstrap) {
  assert(host < nodes_.size() && bootstrap < nodes_.size());
  assert(host != bootstrap);
  assert(network().alive(bootstrap));
  if (!network().alive(host)) network().revive(host);
  // A fresh life: surrogate-side state comes back through the transfer;
  // this node's own subscriptions stay installed at their surrogates.
  nodes_[host]->reset_surrogate_state();
  WarmState& ws = warm_[host];
  ws.reset();
  const std::uint64_t epoch = ++ws.epoch;
  ws.warming = true;
  ws.started_ms = simulator().now();
  ++join_stats_.joins_started;
  if (!dht_.join(host, bootstrap,
                 [this, host] { begin_state_transfer(host); })) {
    // Substrate without a join protocol (e.g. Pastry stub): nothing will
    // arrive — serve cold immediately.
    ws.warming = false;
    return;
  }
  // Failsafe: if the snapshot source dies or stabilization stalls, stop
  // warming and serve with whatever arrived — degraded but live.
  simulator().schedule(kHandoverTimeoutMs, [this, host, epoch] {
    WarmState& w2 = warm_[host];
    if (w2.warming && w2.epoch == epoch && network().alive(host)) {
      ++join_stats_.joins_aborted;
      finish_warming(host);
    }
  });
}

void HyperSubSystem::begin_state_transfer(net::HostIndex joiner) {
  WarmState& ws = warm_[joiner];
  if (!ws.warming || !network().alive(joiner)) return;
  const overlay::Peer heir = dht_.heir_of(joiner);
  if (!heir.valid() || heir.host == joiner || !network().alive(heir.host)) {
    // Nobody to pull from (first node in, or the successor is gone):
    // serve with whatever replication and maintenance bring.
    finish_warming(joiner);
    return;
  }
  ws.source = heir.host;
  // TRANSFER_REQ: header + two node refs.
  network().send(joiner, heir.host, overlay::kHeaderBytes + 16,
                 [this, owner = heir.host, joiner] {
                   handle_transfer_request(owner, joiner);
                 });
}

void HyperSubSystem::handle_transfer_request(net::HostIndex owner,
                                             net::HostIndex joiner) {
  if (!network().alive(owner) || !network().alive(joiner)) return;
  // One outbound session at a time; a second joiner pulling the same owner
  // is dropped and degrades via its warm timeout (rare under real churn).
  if (transfers_out_[owner].active) return;
  open_transfer(owner, joiner, /*leaving=*/false);
}

void HyperSubSystem::open_transfer(net::HostIndex owner,
                                   net::HostIndex target, bool leaving) {
  TransferOut& t = transfers_out_[owner];
  t.reset();
  const std::uint64_t epoch = ++t.epoch;
  t.active = true;
  t.leaving = leaving;
  t.target = target;
  t.target_id = dht_.id_of(target);
  t.my_id = dht_.id_of(owner);
  t.started_ms = simulator().now();
  t.deadline_ms = simulator().now() + kHandoverTimeoutMs;
  // Snapshot synchronously: every mutation after this instant is captured
  // by the write-behind queue, so snapshot + replay = exact state.
  std::uint32_t zones = 0;
  auto frame = std::make_shared<std::vector<std::uint8_t>>(
      serialize_moved_zones(owner, t, &zones));
  const std::uint64_t bytes = overlay::kHeaderBytes + frame->size();
  join_stats_.transfer_bytes += bytes;
  join_stats_.zones_transferred += zones;
  network().send(owner, target, bytes, [this, target, leaving, frame] {
    if (leaving) {
      // The successor installs immediately (it is not warming): primary
      // copies supersede its replica copies of the same zones. It starts
      // matching them only when the splice makes it owner; until then the
      // leaver serves.
      common::ByteReader r(*frame);
      install_transferred_zones(target, r);
      return;
    }
    WarmState& ws = warm_[target];
    if (ws.warming) {
      ws.staged.push_back(std::move(*frame));
    }
    // Not warming (timeout already fired): drop — the owner aborts at its
    // deadline and keeps the authoritative copy.
  });
  schedule_handover_tick(owner, epoch);
}

void HyperSubSystem::schedule_handover_tick(net::HostIndex owner,
                                            std::uint64_t epoch) {
  simulator().schedule(cfg_.handover_tick_ms,
                       [this, owner, epoch] { handover_tick(owner, epoch); });
}

void HyperSubSystem::handover_tick(net::HostIndex owner, std::uint64_t epoch) {
  TransferOut& t = transfers_out_[owner];
  if (!t.active || t.epoch != epoch || t.committed) return;
  if (!network().alive(owner)) return;  // died mid-transfer: crash semantics
  if (!network().alive(t.target) || simulator().now() >= t.deadline_ms) {
    abort_transfer(owner);
    return;
  }
  if (!t.queue.empty()) {
    // Ship the write-behind batch. FIFO per host pair keeps every batch
    // ordered after the snapshot frame and before the commit.
    std::uint64_t bytes = overlay::kHeaderBytes;
    for (const ZoneOp& op : t.queue) bytes += op_bytes(op);
    std::vector<ZoneOp> ops = std::move(t.queue);
    t.queue.clear();
    join_stats_.transfer_bytes += bytes;
    network().send(owner, t.target, bytes,
                   [this, to = t.target, ops = std::move(ops)]() mutable {
      WarmState& ws = warm_[to];
      if (ws.warming) {
        for (ZoneOp& op : ops) ws.transfer_ops.push_back(std::move(op));
      } else {
        // Leave target (or a degraded joiner): the snapshot is already
        // installed, apply in place.
        for (ZoneOp& op : ops) {
          apply_zone_op(to, nodes_[to]->primary(), std::move(op),
                        /*cascade=*/false);
        }
      }
    });
    schedule_handover_tick(owner, epoch);
    return;
  }
  if (!t.leaving && dht_.owns(owner, t.target_id)) {
    // Stabilization has not flipped ownership to the joiner yet.
    schedule_handover_tick(owner, epoch);
    return;
  }
  if (t.leaving) {
    commit_leave_handover(owner);
  } else {
    commit_join_handover(owner);
  }
}

void HyperSubSystem::commit_join_handover(net::HostIndex owner) {
  TransferOut& t = transfers_out_[owner];
  t.committed = true;  // stop ticking; await the joiner's ack
  const std::uint64_t epoch = t.epoch;
  // Lost-ack failsafe (the joiner died with the commit in flight): clear
  // the session at the deadline so the owner can serve future transfers.
  simulator().schedule(
      std::max(0.0, t.deadline_ms - simulator().now()) + cfg_.handover_tick_ms,
      [this, owner, epoch] {
        TransferOut& t2 = transfers_out_[owner];
        if (t2.active && t2.epoch == epoch) abort_transfer(owner);
      });
  network().send(
      owner, t.target, overlay::kHeaderBytes,
      [this, owner, joiner = t.target, epoch, started = t.started_ms] {
        WarmState& ws = warm_[joiner];
        const bool ok = ws.warming;
        if (ok) {
          finish_warming(joiner);
          ++join_stats_.joins_committed;
          note_handoff(started);
        }
        network().send(joiner, owner, overlay::kHeaderBytes,
                       [this, owner, epoch, ok] {
          TransferOut& t2 = transfers_out_[owner];
          if (!t2.active || t2.epoch != epoch) return;
          if (ok) {
            // The joiner serves the range now: retire the moved zones and
            // flush every cached route that pointed at them — the same
            // invalidation a death or LB migration emits.
            ZoneStore& store = nodes_[owner]->primary();
            for (const auto& [key, addr] :
                 zones_in_order(owner, /*saturated=*/true)) {
              if (!transfer_moves(t2, key)) continue;
              store.erase_zone(addr, key);
              store.clear_saturated(addr);
              invalidate_cached_route(key);
            }
          } else {
            // The joiner gave up warming before the commit arrived: keep
            // the zones — this is an abort, not a commit.
            ++join_stats_.joins_aborted;
          }
          t2.reset();
        });
      });
}

void HyperSubSystem::commit_leave_handover(net::HostIndex owner) {
  TransferOut& t = transfers_out_[owner];
  t.committed = true;  // bridge mode: late in-range ops forward to target
  const std::uint64_t epoch = t.epoch;
  // Everything moved; collect the set for the target-side fixups.
  auto moved = std::make_shared<std::vector<std::pair<Id, ZoneAddr>>>(
      zones_in_order(owner, /*saturated=*/true));
  simulator().schedule(
      std::max(0.0, t.deadline_ms - simulator().now()) + cfg_.handover_tick_ms,
      [this, owner, epoch] {
        TransferOut& t2 = transfers_out_[owner];
        if (t2.active && t2.epoch == epoch && network().alive(owner)) {
          abort_transfer(owner);  // target died with the commit in flight
        }
      });
  network().send(
      owner, t.target, overlay::kHeaderBytes,
      [this, owner, target = t.target, moved, epoch] {
        // At the successor: the shipped zones are installed (the snapshot
        // and write-behind frames precede this one, FIFO). Fix the derived
        // state the zone-local replays skipped: re-propagate child pieces
        // and re-seed the replica chain from the new owner, in whichever
        // form each zone now has there.
        for (const auto& [key, addr] : *moved) {
          propagate_pieces(target, addr);
          reseed_replicas(target, addr, key);
        }
        network().send(target, owner, overlay::kHeaderBytes,
                       [this, owner, moved, epoch] {
          TransferOut& t2 = transfers_out_[owner];
          if (!t2.active || t2.epoch != epoch) return;
          // Route-cache coherence for the moved range (same events a
          // death emits), then splice out of the ring and die. The
          // leaver keeps its zones — it serves events until the splice
          // lands and the copies die with the node.
          for (const auto& [key, addr] : *moved) invalidate_cached_route(key);
          ++join_stats_.leaves_completed;
          note_handoff(t2.started_ms);
          dht_.leave(owner,
                     [this, owner] { transfers_out_[owner].reset(); });
        });
      });
}

void HyperSubSystem::abort_transfer(net::HostIndex owner) {
  TransferOut& t = transfers_out_[owner];
  if (!t.active) return;
  t.reset();
  ++join_stats_.joins_aborted;
}

void HyperSubSystem::note_handoff(double started_ms) {
  const double handoff = simulator().now() - started_ms;
  join_stats_.total_handoff_ms += handoff;
  join_stats_.max_handoff_ms = std::max(join_stats_.max_handoff_ms, handoff);
}

void HyperSubSystem::finish_warming(net::HostIndex joiner) {
  WarmState& ws = warm_[joiner];
  if (!ws.warming) return;
  WarmState done = std::move(ws);
  ws.reset();
  // 1. Install the staged zone snapshots (structure-exact restore).
  for (const auto& frame : done.staged) {
    common::ByteReader r(frame);
    install_transferred_zones(joiner, r);
  }
  // 2. Replay the write-behind batches zone-locally, in capture order.
  for (ZoneOp& op : done.transfer_ops) {
    apply_zone_op(joiner, nodes_[joiner]->primary(), std::move(op),
                  /*cascade=*/false);
  }
  // 3. Fix the derived state the zone-local replays skipped: re-propagate
  //    child pieces (idempotent at children the old owner already updated)
  //    and re-seed the replica chain from the new owner, saturated zones
  //    included.
  for (const auto& [key, addr] : zones_in_order(joiner, /*saturated=*/true)) {
    propagate_pieces(joiner, addr);
    reseed_replicas(joiner, addr, key);
  }
  // 4. Replay the deferred full-path work (zone writes, buffered events)
  //    in arrival order — warming is off, so these now execute for real.
  for (auto& work : done.ops) {
    if (ZoneOp* op = std::get_if<ZoneOp>(&work)) {
      write_zone(joiner, std::move(*op));
    } else {
      const ParkedEvent& ev = std::get<ParkedEvent>(work);
      process_event_message(joiner, ev.ctx, ev.subids, ev.hops, ev.via);
    }
  }
  const std::uint64_t q = done.transfer_ops.size();
  const std::uint64_t w = done.ops.size();
  join_stats_.queued_ops_replayed += q;
  join_stats_.warm_ops_replayed += w;
}

void HyperSubSystem::leave_node(net::HostIndex host) {
  if (!network().alive(host)) return;
  if (transfers_out_[host].active || warm_[host].warming) return;
  const overlay::Peer heir = dht_.heir_of(host);
  if (!heir.valid() || heir.host == host || !network().alive(heir.host)) {
    // No live successor to inherit the state: plain departure.
    if (!dht_.leave(host, {})) crash_node(host);
    return;
  }
  open_transfer(host, heir.host, /*leaving=*/true);
}

void HyperSubSystem::crash_node(net::HostIndex host) {
  // Abrupt: no handshake. Clear any transfer machinery this host ran.
  transfers_out_[host].reset();
  warm_[host].reset();
  network().kill(host);
}

bool HyperSubSystem::transfer_active() const noexcept {
  for (const auto& t : transfers_out_) {
    if (t.active) return true;
  }
  for (const auto& w : warm_) {
    if (w.warming) return true;
  }
  return false;
}

}  // namespace hypersub::core
