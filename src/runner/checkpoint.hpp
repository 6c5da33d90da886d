#pragma once
// Whole-run checkpoint/restore: one blob captures everything a paused
// simulation needs to resume — the simulator clock, network liveness and
// traffic counters, overlay routing state, the complete pub/sub system
// (zones, summary filters, replicas, migrated repos, metrics, delivery
// log), and the attached tracer's span log. A run restored from a
// checkpoint and driven to completion produces byte-identical final state
// (snapshot + span log) to the uninterrupted run.
//
// Contract: checkpoint only at quiescence — simulator drained (run()
// returned), no transfer session or warming joiner in flight
// (HyperSubSystem::transfer_active() is false), batches flushed.
// HyperSubSystem::save_state asserts this.
//
// Restoring starts from a freshly constructed stack built with the SAME
// configuration (topology, overlay params, system config, schemes added in
// the same order) — the blob carries dynamic state, not construction-time
// config. See DESIGN.md, "State transfer & checkpointing".

#include <cstdint>
#include <vector>

#include "core/hypersub_system.hpp"

namespace hypersub::runner {

/// Serialize the full run state into one blob. `tracer` is the span
/// recorder attached via set_tracer (nullptr when tracing is off); its
/// presence is recorded in the blob, so checkpoint and restore must agree.
std::vector<std::uint8_t> checkpoint(core::HyperSubSystem& sys,
                                     const trace::Tracer* tracer = nullptr);

/// Rebuild a freshly constructed stack from a checkpoint blob: advances
/// the simulator clock to the checkpointed time, restores network /
/// overlay / system state, then (if the blob carries one) attaches the
/// tracer and restores its span log and id counters. Returns
/// false, with the stack untouched, when the blob's leading format word is
/// not common::kWireVersion: images of older formats have no reader.
[[nodiscard]] bool restore(core::HyperSubSystem& sys,
                           const std::vector<std::uint8_t>& blob,
                           trace::Tracer* tracer = nullptr);

}  // namespace hypersub::runner
