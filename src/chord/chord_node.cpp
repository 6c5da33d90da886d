#include "chord/chord_node.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace hypersub::chord {

ChordNode::ChordNode(Id id, net::HostIndex host, std::size_t succ_list_len)
    : id_(id), host_(host), succ_cap_(succ_list_len) {
  assert(succ_list_len >= 1);
  succ_.reserve(succ_list_len);
}

NodeRef ChordNode::successor() const {
  return succ_.empty() ? NodeRef{} : succ_.front();
}

void ChordNode::set_successor(NodeRef s) {
  assert(s.valid());
  if (succ_.empty()) {
    succ_.push_back(s);
  } else if (succ_.front() != s) {
    // Keep old successors as backups; dedupe below.
    succ_.insert(succ_.begin(), s);
    std::vector<NodeRef> dedup;
    for (const auto& n : succ_) {
      if (std::find(dedup.begin(), dedup.end(), n) == dedup.end()) {
        dedup.push_back(n);
      }
    }
    succ_ = std::move(dedup);
    if (succ_.size() > succ_cap_) succ_.resize(succ_cap_);
  }
  routes_dirty_ = true;
}

void ChordNode::adopt_successor_list(NodeRef succ,
                                     const std::vector<NodeRef>& rest) {
  assert(succ.valid());
  succ_.clear();
  succ_.push_back(succ);
  for (const auto& n : rest) {
    if (succ_.size() >= succ_cap_) break;
    if (n.valid() && n.id != id_ &&
        std::find(succ_.begin(), succ_.end(), n) == succ_.end()) {
      succ_.push_back(n);
    }
  }
  routes_dirty_ = true;
}

void ChordNode::remove_peer(Id failed) {
  succ_.erase(std::remove_if(succ_.begin(), succ_.end(),
                             [failed](const NodeRef& n) {
                               return n.id == failed;
                             }),
              succ_.end());
  for (auto& f : fingers_) {
    if (f.valid() && f.id == failed) f = NodeRef{};
  }
  if (pred_.valid() && pred_.id == failed) pred_ = NodeRef{};
  routes_dirty_ = true;
}

bool ChordNode::owns(Id key) const {
  if (!pred_.valid()) return key == id_;
  return ring::in_open_closed(key, pred_.id, id_);
}

void ChordNode::rebuild_routes() const {
  routes_.clear();
  const auto add = [&](const NodeRef& n) {
    if (n.valid() && n.id != id_) routes_.push_back(n);
  };
  for (const auto& f : fingers_) add(f);
  for (const auto& s : succ_) add(s);
  // Stable: among entries with one id the first-seen stays first, and it is
  // the one the scan would keep (it only replaces on strictly farther).
  std::stable_sort(routes_.begin(), routes_.end(),
                   [this](const NodeRef& a, const NodeRef& b) {
                     return ring::distance(id_, a.id) <
                            ring::distance(id_, b.id);
                   });
  routes_.erase(std::unique(routes_.begin(), routes_.end(),
                            [](const NodeRef& a, const NodeRef& b) {
                              return a.id == b.id;
                            }),
                routes_.end());
  routes_dirty_ = false;
}

NodeRef ChordNode::closest_preceding(Id target) const {
  // The farthest known node strictly inside the clockwise arc (id, target):
  // the last table entry closer than target. target == id_ is an empty arc.
  if (routes_dirty_) rebuild_routes();
  const Id limit = ring::distance(id_, target);
  const auto past = std::partition_point(
      routes_.begin(), routes_.end(), [&](const NodeRef& n) {
        return ring::distance(id_, n.id) < limit;
      });
  return past == routes_.begin() ? self() : *std::prev(past);
}

std::vector<NodeRef> ChordNode::neighbors() const {
  std::vector<NodeRef> out;
  auto add = [&](const NodeRef& n) {
    if (!n.valid() || n.id == id_) return;
    for (const auto& e : out) {
      if (e.id == n.id) return;
    }
    out.push_back(n);
  };
  for (const auto& s : succ_) add(s);
  for (const auto& f : fingers_) add(f);
  add(pred_);
  return out;
}

}  // namespace hypersub::chord
