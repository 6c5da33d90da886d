#include "core/hypersub_system.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/wire.hpp"

namespace hypersub::core {

// ---------------------------------------------------------------------------
// Whole-system checkpointing.

void HyperSubSystem::save_state(common::ByteWriter& w) const {
  // Quiescence contract (see header): simulator drained, finalize_events()
  // called, batches flushed, no transfer session or warming joiner.
  assert(live_.empty());
  assert(!transfer_active());
#ifndef NDEBUG
  for (const auto& b : batches_) assert(b.empty());
#endif
  w.u32(common::kWireVersion);
  w.u32(std::uint32_t(schemes_.size()));
  w.u64(event_seq_);
  w.u64(std::uint64_t(total_subs_));
  w.u64(cover_subid_bytes_saved_);
  w.u64(subid_wire_bytes_);
  // Layer-decision reliability counters (transport stats ride channel_).
  w.u64(rel_.messages_sent);
  w.u64(rel_.acks);
  w.u64(rel_.retries);
  w.u64(rel_.expirations);
  w.u64(rel_.reroutes);
  w.u64(rel_.unmasked_drops);
  w.u64(rel_.duplicates_suppressed);
  w.u64(rel_.truncated_events);
  w.u64(batch_.frames);
  w.u64(batch_.chunks);
  w.u64(batch_.header_bytes_saved);
  w.u64(join_stats_.joins_started);
  w.u64(join_stats_.joins_committed);
  w.u64(join_stats_.joins_aborted);
  w.u64(join_stats_.leaves_completed);
  w.u64(join_stats_.zones_transferred);
  w.u64(join_stats_.transfer_bytes);
  w.u64(join_stats_.queued_ops_replayed);
  w.u64(join_stats_.warm_ops_replayed);
  w.u64(join_stats_.events_buffered);
  w.f64(join_stats_.total_handoff_ms);
  w.f64(join_stats_.max_handoff_ms);
  event_metrics_.save_state(w);
  channel_.save_stats(w);
  for (const auto& c : caches_) c->save_state(w);
  // Built-in sink rows, in delivery order.
  const auto& rows = default_sink_.rows();
  w.u64(rows.size());
  for (const Delivery& d : rows) {
    w.u64(d.event_seq);
    w.u64(std::uint64_t(d.subscriber));
    w.u32(d.iid);
    w.u32(std::uint32_t(d.hops));
    w.f64(d.latency_ms);
  }
  // Per-host dedup sets, iterated in sorted-seq order for stable bytes.
  for (const auto& m : delivered_subs_) {
    w.u32(std::uint32_t(m.size()));
    std::vector<std::uint64_t> seqs;
    seqs.reserve(m.size());
    for (const auto& [seq, subs] : m) seqs.push_back(seq);
    std::sort(seqs.begin(), seqs.end());
    for (const std::uint64_t seq : seqs) {
      const auto& subs = m.at(seq);
      w.u64(seq);
      w.u32(std::uint32_t(subs.size()));
      for (const auto& [id, iid] : subs) {
        w.u64(id);
        w.u32(iid);
      }
    }
  }
  for (const auto& nd : nodes_) nd->save(w);
}

void HyperSubSystem::restore_state(common::ByteReader& r) {
  const std::uint32_t ver = r.u32();
  assert(ver == common::kWireVersion);
  (void)ver;
  const std::uint32_t nschemes = r.u32();
  assert(nschemes == schemes_.size());
  (void)nschemes;
  event_seq_ = r.u64();
  total_subs_ = std::size_t(r.u64());
  cover_subid_bytes_saved_ = r.u64();
  subid_wire_bytes_ = r.u64();
  rel_ = metrics::ReliabilityCounters{};
  rel_.messages_sent = r.u64();
  rel_.acks = r.u64();
  rel_.retries = r.u64();
  rel_.expirations = r.u64();
  rel_.reroutes = r.u64();
  rel_.unmasked_drops = r.u64();
  rel_.duplicates_suppressed = r.u64();
  rel_.truncated_events = r.u64();
  batch_ = metrics::BatchCounters{};
  batch_.frames = r.u64();
  batch_.chunks = r.u64();
  batch_.header_bytes_saved = r.u64();
  join_stats_ = JoinStats{};
  join_stats_.joins_started = r.u64();
  join_stats_.joins_committed = r.u64();
  join_stats_.joins_aborted = r.u64();
  join_stats_.leaves_completed = r.u64();
  join_stats_.zones_transferred = r.u64();
  join_stats_.transfer_bytes = r.u64();
  join_stats_.queued_ops_replayed = r.u64();
  join_stats_.warm_ops_replayed = r.u64();
  join_stats_.events_buffered = r.u64();
  join_stats_.total_handoff_ms = r.f64();
  join_stats_.max_handoff_ms = r.f64();
  event_metrics_.restore_state(r);
  channel_.restore_stats(r);
  for (auto& c : caches_) c->restore_state(r);
  default_sink_.reset();
  const std::uint64_t nrows = r.u64();
  for (std::uint64_t i = 0; i < nrows; ++i) {
    Delivery d;
    d.event_seq = r.u64();
    d.subscriber = net::HostIndex(r.u64());
    d.iid = r.u32();
    d.hops = int(r.u32());
    d.latency_ms = r.f64();
    default_sink_.on_delivery(d);
  }
  for (auto& m : delivered_subs_) {
    m.clear();
    const std::uint32_t nseq = r.u32();
    for (std::uint32_t i = 0; i < nseq; ++i) {
      const std::uint64_t seq = r.u64();
      auto& subs = m[seq];
      const std::uint32_t nsub = r.u32();
      for (std::uint32_t j = 0; j < nsub; ++j) {
        const Id id = r.u64();
        const std::uint32_t iid = r.u32();
        subs.emplace(id, iid);
      }
    }
  }
  for (auto& nd : nodes_) nd->restore(r);
}

}  // namespace hypersub::core
