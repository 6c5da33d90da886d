#pragma once
// The HyperSub benchmark: workload definitions, input generation, the
// topology -> Network -> ChordNet -> HyperSubSystem stack, the timed phases,
// the delivery oracle, and the per-layer replays.
//
// A workload run generates every input from the seed before any clock
// starts, sets the stack up, runs the measured phase on the sequential
// engine, then checks every publish's delivery multiset against brute
// force; an untraced run then times further set-ups of the same inputs
// (setup_s is the fastest of them all). An untraced run reports the
// end-to-end metrics; a traced run wraps the overlay in CountingOverlay,
// times the public calls into each layer, replays the run's own inputs
// through the LPH and zone-matching layers, and reports the per-layer
// metrics. Both report the same three digests.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One workload. With writes it is closed-loop: `rounds` rounds, each of
/// `writes_per_round` replacements (unsubscribe + subscribe; drained)
/// followed by `pubs_per_round` publishes at Poisson arrival times
/// (drained). Without writes it is one open-loop Poisson feed of
/// `rounds` x `pubs_per_round` publishes, all scheduled at once and
/// drained at the end; `pubs_per_round` is then the width of a rate window.
struct Spec {
  std::string name;
  std::size_t nodes = 0;
  std::size_t subs_per_node = 0;
  bool bulk = false;  ///< bulk_subscribe (oracle) instead of routed subscribe()
  double interarrival_ms = 100.0;  ///< mean Poisson publish interarrival
  std::size_t rounds = 0;
  std::size_t writes_per_round = 0;
  std::size_t pubs_per_round = 0;
  /// Open-loop feeds: rate windows start at the first publish scheduled
  /// this far into the feed, once the trees in flight reach steady state.
  double warmup_ms = 0.0;
  unsigned setups = 1;  ///< set-ups per untraced run; setup_s is the fastest
  bool open_loop() const { return writes_per_round == 0; }
};

/// The named workloads (measured sizes at --seconds 10), plus "smoke", a
/// small configuration for quick checks.
const Spec* find_spec(std::string_view name);

/// `s` with its measured work scaled linearly to `seconds` (10 = as listed).
Spec scaled(const Spec& s, double seconds);

struct Options {
  bool traced = false;
  /// Fault injection for the oracle self-test: the n-th delivery (1-based)
  /// is discarded before it reaches the oracle. 0 = none.
  std::uint64_t drop_delivery = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::uint64_t attempted = 0;  ///< publishes checked by the oracle
  std::uint64_t failed = 0;     ///< wrong delivery multiset or truncated
  std::uint64_t ops = 0;        ///< publish + subscribe + unsubscribe calls
  std::uint64_t deliveries = 0;
  double measure_s = 0.0;  ///< wall time of the measured phase
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t snapshot_digest = 0;  ///< metrics::snapshot JSON hash
  std::uint64_t delivery_digest = 0;  ///< per-event delivery multisets
  std::uint64_t zone_digest = 0;      ///< zone_content_digest()
};

Result run_workload(const Spec& spec, std::uint64_t seed, const Options& opt);

/// One-line JSON rendering of a result.
std::string to_json(const Result& r);

}  // namespace perfbench
