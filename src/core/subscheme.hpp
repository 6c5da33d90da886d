#pragma once
// Scheme runtime layout: subschemes + zone systems + rotation (paper §3.5).
//
// A scheme is served by one or more subschemes, each owning a subset of the
// attributes, its own zone tree over the projected content space, and its
// own rotation offset. The degenerate single-subscheme case (all
// attributes, the paper's base design) uses exactly the same code path.
// Subscriptions install into exactly one subscheme; events have one
// rendezvous zone per subscheme.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "lph/lph.hpp"
#include "pubsub/event.hpp"
#include "pubsub/scheme.hpp"
#include "pubsub/subscription.hpp"

namespace hypersub::core {

/// One subscheme: projected zone geometry + rotation.
class Subscheme {
 public:
  Subscheme(std::string name, std::vector<std::size_t> attrs,
            const pubsub::Scheme& scheme, lph::ZoneSystem::Config zone_cfg,
            bool rotate);

  const std::string& name() const noexcept { return name_; }
  /// Indices into the parent scheme's attribute list, ascending.
  const std::vector<std::size_t>& attributes() const noexcept { return attrs_; }
  const lph::ZoneSystem& zones() const noexcept { return zones_; }
  Id rotation() const noexcept { return rotation_; }

  /// Rotated Chord key of one of this subscheme's zones.
  Id zone_key(const lph::Zone& z) const {
    return lph::zone_key(zones_, z, rotation_);
  }

  /// The zone at `level` whose rotated key is `key`: the inverse of
  /// zone_key over the zones a key aliases (a key is the zone code
  /// right-padded with one-bits, plus the rotation).
  lph::Zone zone_at(Id key, int level) const;

  /// Project a full-space rectangle/point onto this subscheme's dimensions.
  HyperRect project(const HyperRect& full) const;
  Point project(const Point& full) const;

  /// True if every attribute the subscription constrains belongs to this
  /// subscheme (i.e. installing here loses no selectivity for LPH).
  bool covers_constraints(const pubsub::Scheme& scheme,
                          const pubsub::Subscription& sub) const;

  /// Number of the subscription's constrained attributes this subscheme has.
  std::size_t constrained_overlap(const pubsub::Scheme& scheme,
                                  const pubsub::Subscription& sub) const;

 private:
  std::string name_;
  std::vector<std::size_t> attrs_;
  lph::ZoneSystem zones_;
  Id rotation_;
};

/// Options controlling how a scheme is laid out on the overlay.
struct SchemeOptions {
  lph::ZoneSystem::Config zone_cfg;  ///< base/levels for all subschemes
  bool rotate = true;                ///< zone-mapping rotation (§4)
  /// Attribute partitions; empty means one subscheme with all attributes.
  std::vector<std::vector<std::size_t>> subschemes;
};

/// A scheme plus its overlay layout.
class SchemeRuntime {
 public:
  SchemeRuntime(pubsub::Scheme scheme, const SchemeOptions& options);

  const pubsub::Scheme& scheme() const noexcept { return scheme_; }
  std::size_t subscheme_count() const noexcept { return subs_.size(); }
  const Subscheme& subscheme(std::size_t i) const { return subs_[i]; }

  /// The subscheme a subscription installs into: the smallest one covering
  /// all constrained attributes, else the one covering the most.
  std::size_t choose_subscheme(const pubsub::Subscription& sub) const;

 private:
  pubsub::Scheme scheme_;
  std::vector<Subscheme> subs_;
};

/// The scheme runtimes of one system, indexed by scheme id.
using SchemeTable = std::vector<std::unique_ptr<SchemeRuntime>>;

}  // namespace hypersub::core
