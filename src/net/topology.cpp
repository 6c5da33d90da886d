#include "net/topology.hpp"

#include <cassert>
#include <cmath>

#include "common/hashing.hpp"

namespace hypersub::net {

double Topology::mean_rtt(std::size_t sample_pairs, std::uint64_t seed) const {
  const std::size_t n = size();
  if (n < 2) return 0.0;
  const std::size_t all_pairs = n * (n - 1) / 2;
  double sum = 0.0;
  std::size_t count = 0;
  if (all_pairs <= sample_pairs) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        sum += rtt(i, j);
        ++count;
      }
    }
  } else {
    Rng rng(seed);
    while (count < sample_pairs) {
      const auto a = rng.index(n);
      const auto b = rng.index(n);
      if (a == b) continue;
      sum += rtt(a, b);
      ++count;
    }
  }
  return sum / double(count);
}

MatrixTopology::MatrixTopology(std::vector<std::vector<double>> oneway)
    : m_(std::move(oneway)) {
  for (std::size_t i = 0; i < m_.size(); ++i) {
    assert(m_[i].size() == m_.size());
    assert(m_[i][i] == 0.0);
  }
}

KingLikeTopology::KingLikeTopology(const Params& p)
    : jitter_seed_(mix64(p.seed ^ 0x4b494e47ULL)),  // "KING"
      jitter_sigma_(p.jitter_sigma) {
  // One host is a valid topology: it has no pair to calibrate against
  // (mean_rtt() reads 0), so its only latency is the zero self-latency.
  assert(p.hosts >= 1);
  Rng rng(p.seed);
  coords_.resize(p.hosts);
  access_ms_.resize(p.hosts);
  // Hosts cluster around a handful of "continents": pick cluster centers,
  // then scatter hosts around them. This gives King's bimodal-ish RTT shape
  // (intra- vs inter-cluster) instead of a featureless ball.
  constexpr std::size_t kClusters = 8;
  std::array<std::array<double, kDims>, kClusters> centers{};
  for (auto& c : centers) {
    for (auto& x : c) x = rng.uniform(0.0, 100.0);
  }
  for (std::size_t i = 0; i < p.hosts; ++i) {
    const auto& c = centers[rng.index(kClusters)];
    for (std::size_t d = 0; d < kDims; ++d) {
      coords_[i][d] = c[d] + rng.normal(0.0, 12.0);
    }
    // Last-mile delay: heavy-tailed, a la DSL/cable edges.
    access_ms_[i] = rng.lognormal(0.0, 0.6);
  }
  // Calibrate to the target mean RTT: measure raw mean, then scale so that
  // non-access delay accounts for (1 - access_delay_frac) of the target.
  scale_ = 1.0;
  const double raw_mean = mean_rtt(20000, p.seed + 1);
  if (raw_mean > 0.0) {
    scale_ = p.target_mean_rtt_ms / raw_mean;
    // Split the scaling so access delays carry access_delay_frac of the RTT.
    double access_mean = 0.0;
    for (double a : access_ms_) access_mean += a;
    access_mean /= double(access_ms_.size());
    const double target_access_oneway =
        p.target_mean_rtt_ms / 2.0 * p.access_delay_frac;
    const double access_scale =
        access_mean > 0.0 ? target_access_oneway / (2.0 * access_mean) : 1.0;
    for (double& a : access_ms_) a *= access_scale;
    // Rescale the core (distance) term so the total lands on target:
    // measured mean = core_part + access_part, where access_part was just
    // calibrated to target * access_delay_frac.
    const double recal = mean_rtt(20000, p.seed + 2);
    const double access_part = p.target_mean_rtt_ms * p.access_delay_frac;
    const double core_part = recal - access_part;
    if (core_part > 0.0) {
      scale_ *= p.target_mean_rtt_ms * (1.0 - p.access_delay_frac) / core_part;
    }
  }
}

double KingLikeTopology::latency(HostIndex a, HostIndex b) const {
  if (a == b) return 0.0;
  // Symmetric pairwise jitter: derive the factor from the unordered pair.
  const HostIndex lo = a < b ? a : b;
  const HostIndex hi = a < b ? b : a;
  double dist2 = 0.0;
  for (std::size_t d = 0; d < kDims; ++d) {
    const double dx = coords_[a][d] - coords_[b][d];
    dist2 += dx * dx;
  }
  const std::uint64_t h =
      hash_combine(jitter_seed_, hash_combine(std::uint64_t(lo), std::uint64_t(hi)));
  // Map hash to a deterministic lognormal-ish multiplicative jitter via the
  // inverse of a standard normal approximated by a sum of uniforms.
  const double u1 = double((h >> 11) & 0x1FFFFF) / double(0x1FFFFF);
  const double u2 = double((h >> 32) & 0x1FFFFF) / double(0x1FFFFF);
  const double u3 = double(h & 0x7FF) / double(0x7FF);
  const double z = (u1 + u2 + u3) * 2.0 - 3.0;  // approx N(0,1), clipped tails
  const double jitter = std::exp(jitter_sigma_ * z);
  const double core = std::sqrt(dist2) * scale_ * jitter;
  return core + access_ms_[a] + access_ms_[b];
}

}  // namespace hypersub::net
