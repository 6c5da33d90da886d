#pragma once
// Subscription identifiers carried in event messages (paper §3.3–3.4).
//
// The paper's subid = (nid, iid) overloads nid with both zone keys (the
// rendezvous entry, surrogate-subscription entries) and node ids (real
// subscriber entries) — both are routed by successor(nid). We make the
// overloading explicit with a kind tag; the wire size stays the paper's
// 9 bytes (8 B target + 1 B internal id, the tag riding in the iid byte's
// spare bits).

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/ids.hpp"

namespace hypersub::core {

/// What a SubId's target means.
enum class SubIdKind : std::uint8_t {
  kRendezvous,  ///< target = leaf zone key; iid unused (Alg. 4's NULL iid)
  kZone,        ///< target = zone key of a surrogate-subscription's zone
  kSubscriber,  ///< target = subscriber node id; iid = subscription id
  kMigrated,    ///< target = acceptor node id; iid = migration bucket token
};

/// Routing handle for one pending match/delivery obligation.
struct SubId {
  Id target = 0;
  std::uint32_t iid = 0;
  SubIdKind kind = SubIdKind::kRendezvous;

  friend bool operator==(const SubId&, const SubId&) = default;

  std::string to_string() const;
};

/// Wire size of one subid in an event message: 8 B nodeid + 1 B iid.
inline constexpr std::uint64_t kSubIdBytes = 9;
/// Wire size of the event payload in an event message.
inline constexpr std::uint64_t kEventBytes = 100;

/// Wire size of a subid list inside an event message.
///
/// `grouped` is the covering-aggregation encoding: a run of >= 2 adjacent
/// subids sharing one (target, kind) is sent as one 8 B target + 1 B
/// run-tag (kind + count in the iid byte's spare bits) + 1 B per iid —
/// 9 + n bytes instead of 9 n. Singleton runs keep the plain 9 B form, so
/// grouping never costs bytes. The encoding is lossless (the receiver
/// expands runs back to individual subids), so only the byte accounting
/// changes — senders order each hop's subids by target to maximize runs
/// (HyperSubSystem Phase 2 under Config::cover_aggregation).
inline std::uint64_t subid_list_wire_bytes(std::span<const SubId> list,
                                           bool grouped) {
  if (!grouped) return kSubIdBytes * list.size();
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < list.size();) {
    std::size_t j = i + 1;
    while (j < list.size() && list[j].target == list[i].target &&
           list[j].kind == list[i].kind) {
      ++j;
    }
    const std::uint64_t n = j - i;
    bytes += n == 1 ? kSubIdBytes : 8 + 1 + n;
    i = j;
  }
  return bytes;
}

struct SubIdHash {
  std::size_t operator()(const SubId& s) const noexcept {
    std::size_t h = std::hash<Id>{}(s.target);
    h ^= std::hash<std::uint64_t>{}(
        (std::uint64_t(s.iid) << 8) | std::uint64_t(s.kind));
    return h;
  }
};

}  // namespace hypersub::core
