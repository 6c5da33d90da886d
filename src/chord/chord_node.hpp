#pragma once
// Per-node Chord routing state: predecessor, successor list, finger table.
//
// ChordNode holds pure state plus the local routing decisions (who owns a
// key, which neighbor is the best next hop). All message passing lives in
// ChordNet; keeping the node passive makes the routing logic unit-testable
// without a network.

#include <array>
#include <cstddef>
#include <vector>

#include "common/ids.hpp"
#include "net/topology.hpp"
#include "overlay/peer.hpp"

namespace hypersub::chord {

/// Reference to a remote node: ring id + simulator host index.
/// (The overlay-neutral Peer type; Pastry uses the same one.)
using NodeRef = overlay::Peer;

/// Routing state of one Chord node.
class ChordNode {
 public:
  ChordNode(Id id, net::HostIndex host, std::size_t succ_list_len);

  Id id() const noexcept { return id_; }
  net::HostIndex host() const noexcept { return host_; }
  NodeRef self() const noexcept { return NodeRef{id_, host_}; }

  // -- successor list ------------------------------------------------------

  /// Primary successor (first entry of the list); invalid if list empty.
  NodeRef successor() const;
  const std::vector<NodeRef>& successor_list() const noexcept { return succ_; }
  std::size_t successor_list_capacity() const noexcept { return succ_cap_; }

  /// Replace the primary successor, keeping the rest of the list.
  void set_successor(NodeRef s);
  /// Adopt `succ` as primary and `rest` (their successor list) shifted in.
  void adopt_successor_list(NodeRef succ, const std::vector<NodeRef>& rest);
  /// Drop a failed node from the successor list (and fingers).
  void remove_peer(Id failed);

  // -- predecessor ---------------------------------------------------------

  NodeRef predecessor() const noexcept { return pred_; }
  void set_predecessor(NodeRef p) { pred_ = p; }
  void clear_predecessor() { pred_ = NodeRef{}; }

  /// Forget everything (successors, fingers, predecessor) — a rejoining
  /// node must not route through its previous life's stale view.
  void reset_routing_state() {
    succ_.clear();
    pred_ = NodeRef{};
    fingers_.fill(NodeRef{});
    routes_dirty_ = true;
  }

  // -- fingers -------------------------------------------------------------

  const NodeRef& finger(int i) const { return fingers_[std::size_t(i)]; }
  void set_finger(int i, NodeRef f) {
    fingers_[std::size_t(i)] = f;
    routes_dirty_ = true;
  }

  // -- routing decisions ---------------------------------------------------

  /// True if this node is the successor of `key` given its current
  /// predecessor knowledge: key in (pred, self]. With no predecessor the
  /// node cannot claim ownership (returns key == id()).
  bool owns(Id key) const;

  /// The routing-table neighbor whose id most closely precedes `target`
  /// going clockwise from this node — Alg. 5 line 20 over the fingers and
  /// the successor list; returns self() when the table holds no node in
  /// (id, target). A binary search over the table sorted by clockwise
  /// distance (rebuilt on first use after a change), returning exactly what
  /// a linear scan of fingers then successors keeping the first strictly
  /// farther entry would. Like every ChordNode accessor it must only be
  /// called from the owning host's execution context.
  NodeRef closest_preceding(Id target) const;

  /// All distinct valid neighbors (fingers + successor list + predecessor);
  /// the load balancer's probe set.
  std::vector<NodeRef> neighbors() const;

 private:
  Id id_;
  net::HostIndex host_;
  std::size_t succ_cap_;
  std::vector<NodeRef> succ_;
  NodeRef pred_;
  std::array<NodeRef, kIdBits> fingers_{};

  void rebuild_routes() const;

  /// closest_preceding's lookup table: the distinct valid entries of
  /// fingers_ then succ_ (first occurrence of an id wins), ascending by
  /// ring::distance(id_, id). A cache of the two tables, hence mutable;
  /// every mutator of fingers_ or succ_ marks it dirty.
  mutable std::vector<NodeRef> routes_;
  mutable bool routes_dirty_ = true;
};

}  // namespace hypersub::chord
