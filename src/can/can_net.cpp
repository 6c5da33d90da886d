#include "can/can_net.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

namespace hypersub::can {

CanNet::CanNet(net::Network& net, const Params& params)
    : net_(net), dims_(params.dims) {
  assert(net.size() >= 1);
  assert(dims_ >= 1);
  nodes_.resize(net.size());
  nodes_[0].zone = HyperRect::uniform(dims_, 0.0, 1.0);
  Rng rng(params.seed);
  for (net::HostIndex h = 1; h < net.size(); ++h) {
    Point p(dims_);
    for (auto& x : p) x = rng.uniform(0.0, 1.0);
    split_and_join(owner_of(p), h, p);
  }
}

net::HostIndex CanNet::owner_of(const Point& p) const {
  for (net::HostIndex h = 0; h < nodes_.size(); ++h) {
    if (!nodes_[h].zone.empty() && nodes_[h].zone.contains(p)) return h;
  }
  assert(false && "point not covered by any zone");
  return 0;
}

bool CanNet::adjacent(const HyperRect& a, const HyperRect& b) {
  if (a.empty() || b.empty()) return false;
  // Abutting in exactly one dimension, overlapping (positively) in others.
  std::size_t touch = 0;
  for (std::size_t i = 0; i < a.dimensions(); ++i) {
    const Interval& x = a.dim(i);
    const Interval& y = b.dim(i);
    if (x.hi == y.lo || y.hi == x.lo) {
      ++touch;
    } else if (std::min(x.hi, y.hi) > std::max(x.lo, y.lo)) {
      // positive overlap — fine
    } else {
      return false;  // disjoint with a gap
    }
  }
  // touch == 1: face-adjacent. touch > 1: corner/edge contact only (the
  // "overlap" in the remaining dims was zero-length), not CAN-adjacent.
  return touch == 1;
}

void CanNet::split_and_join(net::HostIndex owner, net::HostIndex joiner,
                            const Point& p) {
  CanNode& o = nodes_[owner];
  CanNode& j = nodes_[joiner];
  // Split along the longest side (ties -> lowest dimension).
  std::size_t dim = 0;
  double best = -1.0;
  for (std::size_t i = 0; i < dims_; ++i) {
    if (o.zone.dim(i).length() > best) {
      best = o.zone.dim(i).length();
      dim = i;
    }
  }
  const double mid = o.zone.dim(dim).center();
  HyperRect low = o.zone, high = o.zone;
  low.dim(dim) = Interval{o.zone.dim(dim).lo, mid};
  high.dim(dim) = Interval{mid, o.zone.dim(dim).hi};
  // Joiner takes the half containing p; boundary goes to the low half.
  const bool joiner_high = p[dim] > mid;
  j.zone = joiner_high ? high : low;
  o.zone = joiner_high ? low : high;

  // Rebuild adjacency among {owner, joiner} x old neighbors.
  const std::vector<net::HostIndex> old_neighbors = o.neighbors;
  o.neighbors.clear();
  j.neighbors.clear();
  auto link = [this](net::HostIndex a, net::HostIndex b) {
    nodes_[a].neighbors.push_back(b);
    nodes_[b].neighbors.push_back(a);
  };
  for (const net::HostIndex nb : old_neighbors) {
    auto& nlist = nodes_[nb].neighbors;
    nlist.erase(std::remove(nlist.begin(), nlist.end(), owner), nlist.end());
    if (adjacent(o.zone, nodes_[nb].zone)) link(owner, nb);
    if (adjacent(j.zone, nodes_[nb].zone)) link(joiner, nb);
  }
  link(owner, joiner);
}

double CanNet::distance_to_zone(const HyperRect& z, const Point& p) const {
  double d2 = 0.0;
  for (std::size_t i = 0; i < dims_; ++i) {
    double d = 0.0;
    if (p[i] < z.dim(i).lo) d = z.dim(i).lo - p[i];
    else if (p[i] > z.dim(i).hi) d = p[i] - z.dim(i).hi;
    d2 += d * d;
  }
  return d2;
}

void CanNet::route(net::HostIndex from, const Point& p, std::uint64_t bytes,
                   RouteCallback cb) {
  auto shared = std::make_shared<RouteCallback>(std::move(cb));
  route_step(from, p, bytes, 0, net_.simulator().now(), std::move(shared));
}

void CanNet::route_step(net::HostIndex at, const Point& p,
                        std::uint64_t bytes, int hops, double issued,
                        std::shared_ptr<RouteCallback> cb) {
  const CanNode& nd = nodes_[at];
  if (nd.zone.contains(p)) {
    (*cb)(RouteResult{at, hops, net_.simulator().now() - issued});
    return;
  }
  // Greedy: neighbor whose zone is closest to the target.
  net::HostIndex next = at;
  double best = distance_to_zone(nd.zone, p);
  for (const net::HostIndex nb : nd.neighbors) {
    const double d = distance_to_zone(nodes_[nb].zone, p);
    if (d < best) {
      best = d;
      next = nb;
    }
  }
  if (next == at) return;  // greedy dead end (cannot happen on a valid tiling)
  net_.send(at, next, bytes, [this, next, p, bytes, hops, issued, cb] {
    route_step(next, p, bytes, hops + 1, issued, cb);
  });
}

void CanNet::region_multicast(
    net::HostIndex from, const Point& start, const HyperRect& region,
    std::uint64_t bytes, std::function<void(net::HostIndex, int)> on_visit,
    std::function<void(int)> on_done) {
  struct Flood {
    std::unordered_set<net::HostIndex> visited;
    std::size_t outstanding = 0;
    int max_hops = 0;
    std::function<void(net::HostIndex, int)> on_visit;
    std::function<void(int)> on_done;
  };
  auto flood = std::make_shared<Flood>();
  flood->on_visit = std::move(on_visit);
  flood->on_done = std::move(on_done);

  // Recursive spreader: visit, then forward to unvisited overlapping
  // neighbors. It refers to itself weakly — a strong self-capture is a
  // reference cycle that leaks every flood; the in-flight sends (and the
  // initial route callback) keep it alive.
  auto spread = std::make_shared<std::function<void(net::HostIndex, int)>>();
  *spread = [this, flood, region, bytes,
             self = std::weak_ptr(spread)](net::HostIndex at, int hops) {
    flood->max_hops = std::max(flood->max_hops, hops);
    flood->on_visit(at, hops);
    for (const net::HostIndex nb : nodes_[at].neighbors) {
      if (!nodes_[nb].zone.overlaps(region)) continue;
      if (!flood->visited.insert(nb).second) continue;
      ++flood->outstanding;
      net_.send(at, nb, bytes, [flood, spread = self.lock(), nb, hops] {
        (*spread)(nb, hops + 1);
        --flood->outstanding;
        if (flood->outstanding == 0 && flood->on_done) {
          flood->on_done(flood->max_hops);
        }
      });
    }
  };

  route(from, start, bytes,
        [flood, spread](const RouteResult& r) {
          flood->visited.insert(r.owner);
          ++flood->outstanding;
          (*spread)(r.owner, r.hops);
          --flood->outstanding;
          if (flood->outstanding == 0 && flood->on_done) {
            flood->on_done(flood->max_hops);
          }
        });
}

bool CanNet::check_invariants() const {
  // Volumes tile the unit cube.
  double vol = 0.0;
  const HyperRect unit = HyperRect::uniform(dims_, 0.0, 1.0);
  for (const auto& n : nodes_) {
    if (n.zone.empty()) return false;
    vol += n.zone.volume_fraction(unit);
  }
  if (std::abs(vol - 1.0) > 1e-9 * double(nodes_.size())) return false;
  // Neighbor symmetry + geometric adjacency.
  for (net::HostIndex h = 0; h < nodes_.size(); ++h) {
    for (const net::HostIndex nb : nodes_[h].neighbors) {
      if (!adjacent(nodes_[h].zone, nodes_[nb].zone)) return false;
      const auto& back = nodes_[nb].neighbors;
      if (std::find(back.begin(), back.end(), h) == back.end()) return false;
    }
  }
  return true;
}

}  // namespace hypersub::can
