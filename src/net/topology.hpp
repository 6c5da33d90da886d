#pragma once
// Network latency models.
//
// The paper draws pairwise latencies from the King dataset (1740 DNS
// servers, average RTT 180 ms). We cannot ship King, so KingLikeTopology
// synthesizes an Internet-like latency structure: hosts are embedded in a
// low-dimensional Euclidean space (the same family of models Vivaldi showed
// fits King well), each host adds a last-mile access delay, and a
// deterministic per-pair jitter term breaks the perfect metric. The 1740
// host instance is calibrated to mean RTT ~ 180 ms. MatrixTopology accepts
// an explicit matrix for unit tests or a real King file if one is present.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace hypersub::net {

/// Index of a simulated host (dense, 0-based; distinct from Chord Id).
using HostIndex = std::size_t;

/// Pairwise one-way latency model. Implementations must be symmetric
/// (latency(a,b) == latency(b,a)) and zero on the diagonal.
class Topology {
 public:
  virtual ~Topology() = default;

  /// Number of hosts.
  virtual std::size_t size() const = 0;

  /// One-way propagation latency in ms between two hosts.
  virtual double latency(HostIndex a, HostIndex b) const = 0;

  /// Round-trip time in ms.
  double rtt(HostIndex a, HostIndex b) const { return 2.0 * latency(a, b); }

  /// Mean RTT over sampled host pairs (exact for small n).
  double mean_rtt(std::size_t sample_pairs = 200000,
                  std::uint64_t seed = 1) const;
};

/// Explicit one-way latency matrix (tests, or real measurement files).
class MatrixTopology final : public Topology {
 public:
  /// `oneway[i][j]` one-way ms latencies. Must be square and symmetric.
  explicit MatrixTopology(std::vector<std::vector<double>> oneway);

  std::size_t size() const override { return m_.size(); }
  double latency(HostIndex a, HostIndex b) const override { return m_[a][b]; }

 private:
  std::vector<std::vector<double>> m_;
};

/// Synthetic King-like topology: 5-D Euclidean embedding + per-host access
/// delay + deterministic pairwise lognormal jitter. Latencies are computed
/// on demand (O(1) memory per host), so 6000-host networks stay cheap.
class KingLikeTopology final : public Topology {
 public:
  struct Params {
    std::size_t hosts = 1740;
    double target_mean_rtt_ms = 180.0;  // King's published average
    double access_delay_frac = 0.15;    // share of latency in last-mile links
    double jitter_sigma = 0.25;         // lognormal sigma of pairwise jitter
    std::uint64_t seed = 42;
  };

  explicit KingLikeTopology(const Params& p);

  std::size_t size() const override { return coords_.size(); }
  double latency(HostIndex a, HostIndex b) const override;

 private:
  static constexpr std::size_t kDims = 5;

  std::vector<std::array<double, kDims>> coords_;
  std::vector<double> access_ms_;
  std::uint64_t jitter_seed_;
  double jitter_sigma_;
  double scale_ = 1.0;  // calibration factor toward target mean RTT
};

}  // namespace hypersub::net
