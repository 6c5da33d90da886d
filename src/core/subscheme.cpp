#include "core/subscheme.hpp"

#include <algorithm>
#include <cassert>

namespace hypersub::core {

namespace {

HyperRect projected_domain(const pubsub::Scheme& scheme,
                           const std::vector<std::size_t>& attrs) {
  std::vector<Interval> dims;
  dims.reserve(attrs.size());
  for (std::size_t a : attrs) {
    assert(a < scheme.arity());
    dims.push_back(scheme.attribute(a).domain);
  }
  return HyperRect(std::move(dims));
}

}  // namespace

Subscheme::Subscheme(std::string name, std::vector<std::size_t> attrs,
                     const pubsub::Scheme& scheme,
                     lph::ZoneSystem::Config zone_cfg, bool rotate)
    : name_(std::move(name)),
      attrs_(std::move(attrs)),
      zones_(projected_domain(scheme, attrs_), zone_cfg),
      rotation_(rotate ? lph::rotation_offset(name_) : 0) {
  assert(!attrs_.empty());
  assert(std::is_sorted(attrs_.begin(), attrs_.end()));
}

HyperRect Subscheme::project(const HyperRect& full) const {
  std::vector<Interval> dims;
  dims.reserve(attrs_.size());
  for (std::size_t a : attrs_) dims.push_back(full.dim(a));
  return HyperRect(std::move(dims));
}

lph::Zone Subscheme::zone_at(Id key, int level) const {
  const int used = level * zones_.base_bits();
  return lph::Zone{used == 0 ? 0 : (key - rotation_) >> (kIdBits - used),
                   level};
}

Point Subscheme::project(const Point& full) const {
  Point p;
  p.reserve(attrs_.size());
  for (std::size_t a : attrs_) p.push_back(full[a]);
  return p;
}

bool Subscheme::covers_constraints(const pubsub::Scheme& scheme,
                                   const pubsub::Subscription& sub) const {
  for (std::size_t i = 0; i < scheme.arity(); ++i) {
    const bool constrained =
        sub.range().dim(i) != scheme.attribute(i).domain;
    if (constrained &&
        std::find(attrs_.begin(), attrs_.end(), i) == attrs_.end()) {
      return false;
    }
  }
  return true;
}

std::size_t Subscheme::constrained_overlap(
    const pubsub::Scheme& scheme, const pubsub::Subscription& sub) const {
  std::size_t n = 0;
  for (std::size_t a : attrs_) {
    if (sub.range().dim(a) != scheme.attribute(a).domain) ++n;
  }
  return n;
}

SchemeRuntime::SchemeRuntime(pubsub::Scheme scheme,
                             const SchemeOptions& options)
    : scheme_(std::move(scheme)) {
  std::vector<std::vector<std::size_t>> partitions = options.subschemes;
  if (partitions.empty()) {
    partitions.emplace_back();
    for (std::size_t i = 0; i < scheme_.arity(); ++i) {
      partitions.back().push_back(i);
    }
  }
  subs_.reserve(partitions.size());
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    auto attrs = partitions[i];
    std::sort(attrs.begin(), attrs.end());
    subs_.emplace_back(scheme_.name() + "#" + std::to_string(i),
                       std::move(attrs), scheme_, options.zone_cfg,
                       options.rotate);
  }
}

std::size_t SchemeRuntime::choose_subscheme(
    const pubsub::Subscription& sub) const {
  // Prefer the smallest subscheme covering every constrained attribute.
  std::size_t best = subs_.size();
  for (std::size_t i = 0; i < subs_.size(); ++i) {
    if (!subs_[i].covers_constraints(scheme_, sub)) continue;
    if (best == subs_.size() ||
        subs_[i].attributes().size() < subs_[best].attributes().size()) {
      best = i;
    }
  }
  if (best != subs_.size()) return best;
  // Otherwise: most constrained-attribute overlap (ties -> first).
  std::size_t best_overlap = 0;
  best = 0;
  for (std::size_t i = 0; i < subs_.size(); ++i) {
    const std::size_t o = subs_[i].constrained_overlap(scheme_, sub);
    if (o > best_overlap) {
      best_overlap = o;
      best = i;
    }
  }
  return best;
}

}  // namespace hypersub::core
