// Deterministic stripe placement for the cluster tier: a consistent-
// hash ring with virtual nodes decides which node stores which shard
// of which stripe, and an explicit per-stripe placement table makes
// the decision inspectable and carriable in RPC frames.
//
// Two properties the repair orchestration depends on:
//
//   * Determinism — table(stripe, geom) is a pure function of the
//     membership set and the stripe id (seeded hashing, no std::hash),
//     so every coordinator and every test replica computes identical
//     tables.
//   * Minimal movement — membership changes only re-home the shards
//     whose ring successor changed (the consistent-hashing guarantee);
//     a rebalance moves roughly shards/N chunks when one of N nodes
//     joins or leaves, not a full reshuffle.
//
// LRC awareness: for a geometry with local groups, each group (its
// data shards plus its XOR local parity) goes to ONE failure domain —
// chosen per (stripe, group) from a domain-level ring — on nodes of
// that domain the stripe has not used yet. A member the domain has no
// free node for spills onto a free node elsewhere, and the global
// parities go to the next domain no group claimed that still has a
// free node. A stripe's shards therefore land on distinct nodes
// whenever nodes >= total_shards, so one lost node costs each group at
// most one member, which its local parity repairs; and when every
// domain can hold a whole group, a lost domain costs at most one group.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cluster {

using NodeId = std::uint32_t;

/// Sentinel "from" id for callers that are not storage nodes (the
/// coordinator / client side of an RPC).
inline constexpr NodeId kClientId = 0xffffffffu;

/// Stripe geometry as the cluster sees it: k data shards, `global`
/// Reed-Solomon parities covering all k, and `local` XOR parities
/// (one per group, LRC-style) — local == 0 means plain RS. Shard
/// indices are laid out data [0, k), global [k, k+global), local
/// [k+global, k+global+local), matching ec::LrcCodec's parity span.
struct Geometry {
  std::uint32_t k = 0;
  std::uint32_t global = 0;
  std::uint32_t local = 0;
  std::uint32_t block_size = 0;

  std::uint32_t total_shards() const { return k + global + local; }
  std::uint32_t groups() const { return local; }
  /// Data shards per local group (ceil), when local > 0.
  std::uint32_t group_size() const {
    return local == 0 ? k : (k + local - 1) / local;
  }

  bool is_data(std::uint32_t shard) const { return shard < k; }
  bool is_global(std::uint32_t shard) const {
    return shard >= k && shard < k + global;
  }
  bool is_local_parity(std::uint32_t shard) const {
    return shard >= k + global && shard < total_shards();
  }
  /// Local group of a data or local-parity shard; -1 for global
  /// parities (they belong to every group) and for plain RS.
  int group_of(std::uint32_t shard) const {
    if (local == 0) return -1;
    if (is_data(shard)) return static_cast<int>(shard / group_size());
    if (is_local_parity(shard)) return static_cast<int>(shard - k - global);
    return -1;
  }
  /// Member shards of group g: its data shards plus its local parity.
  std::vector<std::uint32_t> group_members(std::uint32_t g) const;

  bool valid() const;

  friend bool operator==(const Geometry&, const Geometry&) = default;
};

struct NodeInfo {
  NodeId id = 0;
  /// Failure domain (rack / host). Nodes sharing a domain are assumed
  /// to fail together; defaults to one domain per node.
  std::uint32_t domain = 0;
};

class Placement {
 public:
  /// `vnodes` virtual points per node smooth the ring; 64 keeps the
  /// per-node load spread under ~15 % for small clusters.
  explicit Placement(std::vector<NodeInfo> nodes, std::size_t vnodes = 64);

  /// Membership changes bump epoch() and rebuild the rings. add_node
  /// returns false on a duplicate id, remove_node on an unknown id.
  bool add_node(const NodeInfo& node);
  bool remove_node(NodeId id);

  std::size_t size() const { return nodes_.size(); }
  std::uint64_t epoch() const { return epoch_; }
  const std::vector<NodeInfo>& nodes() const { return nodes_; }
  bool has_node(NodeId id) const;

  /// The placement table of one stripe: home node per shard index,
  /// geom.total_shards() entries. Shards land on distinct nodes
  /// whenever size() >= total_shards(), RS and LRC alike (nodes are
  /// reused round-robin once exhausted, so small clusters still place
  /// wide stripes). Empty when the membership is empty or the geometry
  /// invalid.
  std::vector<NodeId> table(std::uint64_t stripe_id,
                            const Geometry& geom) const;

  NodeId node_of(std::uint64_t stripe_id, std::uint32_t shard,
                 const Geometry& geom) const;

 private:
  struct Point {
    std::uint64_t hash;
    NodeId node;
  };

  void rebuild();
  /// First node at or clockwise after `h` whose id is not in `used`
  /// (*at, when given, receives its point); kClientId when every node
  /// on `ring` is used.
  NodeId lookup_free(const std::vector<Point>& ring, std::uint64_t h,
                     const std::vector<NodeId>& used,
                     std::uint64_t* at = nullptr) const;
  /// lookup_free, falling back to the plain successor when every node
  /// is used.
  NodeId lookup(const std::vector<Point>& ring, std::uint64_t h,
                const std::vector<NodeId>& used) const;
  /// The node ring of one failure domain (empty for an unknown one).
  const std::vector<Point>& domain_ring(std::uint32_t domain) const;

  std::vector<NodeInfo> nodes_;
  std::size_t vnodes_;
  std::uint64_t epoch_ = 0;
  std::vector<Point> ring_;  ///< all nodes, vnodes_ points each
  /// Domain-level ring (one entry set per distinct domain) and the
  /// per-domain node rings, for the LRC group pinning.
  std::vector<Point> domain_ring_;  ///< node field holds the domain id
  std::vector<std::uint32_t> domains_;
  std::vector<std::pair<std::uint32_t, std::vector<Point>>> domain_rings_;
};

}  // namespace cluster
