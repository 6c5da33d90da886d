#include "runner/checkpoint.hpp"

#include <cassert>

#include "common/wire.hpp"

namespace hypersub::runner {

std::vector<std::uint8_t> checkpoint(core::HyperSubSystem& sys,
                                     const trace::Tracer* tracer) {
  common::ByteWriter w;
  w.u32(common::kWireVersion);
  w.f64(sys.simulator().now());
  sys.network().save_state(w);
  sys.overlay().save_state(w);
  sys.save_state(w);
  w.boolean(tracer != nullptr);
  if (tracer) tracer->save_state(w);
  return w.take();
}

bool restore(core::HyperSubSystem& sys, const std::vector<std::uint8_t>& blob,
             trace::Tracer* tracer) {
  common::ByteReader r(blob);
  // Only the current format has a reader: an image of any other version is
  // refused before anything is touched, in every build type.
  if (blob.size() < sizeof(std::uint32_t) || r.u32() != common::kWireVersion) {
    return false;
  }
  // Advance the fresh simulator's clock to the checkpointed time by
  // draining an empty task scheduled there — timers laid out after the
  // restore resume on the original timeline.
  const double now = r.f64();
  sim::Simulator& simulator = sys.simulator();
  assert(simulator.now() <= now);
  simulator.schedule_at(now, [] {});
  simulator.run();
  sys.network().restore_state(r);
  sys.overlay().restore_state(r);
  sys.restore_state(r);
  const bool has_tracer = r.boolean();
  assert(has_tracer == (tracer != nullptr));
  (void)has_tracer;
  if (tracer) {
    sys.set_tracer(tracer);
    tracer->restore_state(r);
  }
  return true;
}

}  // namespace hypersub::runner
