#include "cluster/placement.h"

#include <algorithm>

namespace cluster {

namespace {

// SplitMix64 — the same seeded mixer the fault injector uses, so
// placement is a pure function of its integer inputs on every build.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t Mix3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return Mix(a ^ Mix(b ^ Mix(c)));
}

// Salts separating the hash streams (stripe shard points, group
// domains, global-parity domains, ring vnode points).
constexpr std::uint64_t kShardSalt = 0x5ead11ce5a17ull;
constexpr std::uint64_t kGroupSalt = 0x10ca1dc0de5ull;
constexpr std::uint64_t kGlobalSalt = 0x91a0ba1dc0deull;
constexpr std::uint64_t kVnodeSalt = 0xc0411ab1e5ull;

bool Contains(const std::vector<NodeId>& v, NodeId id) {
  return std::find(v.begin(), v.end(), id) != v.end();
}

bool ContainsU32(const std::vector<std::uint32_t>& v, std::uint32_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

std::vector<std::uint32_t> Geometry::group_members(std::uint32_t g) const {
  std::vector<std::uint32_t> members;
  if (local == 0 || g >= local) return members;
  const std::uint32_t gs = group_size();
  for (std::uint32_t i = g * gs; i < k && i < (g + 1) * gs; ++i) {
    members.push_back(i);
  }
  members.push_back(k + global + g);
  return members;
}

bool Geometry::valid() const {
  if (k == 0 || block_size == 0) return false;
  if (global == 0 && local == 0) return false;
  if (local > k) return false;
  // Mirror the wire-format bounds so a table computed here always fits
  // in a frame.
  if (total_shards() > 4096) return false;
  return true;
}

Placement::Placement(std::vector<NodeInfo> nodes, std::size_t vnodes)
    : nodes_(std::move(nodes)), vnodes_(vnodes == 0 ? 1 : vnodes) {
  // Deduplicate ids defensively; first occurrence wins.
  std::vector<NodeInfo> unique;
  for (const NodeInfo& n : nodes_) {
    bool seen = false;
    for (const NodeInfo& u : unique) seen = seen || u.id == n.id;
    if (!seen) unique.push_back(n);
  }
  nodes_ = std::move(unique);
  rebuild();
}

bool Placement::has_node(NodeId id) const {
  for (const NodeInfo& n : nodes_) {
    if (n.id == id) return true;
  }
  return false;
}

bool Placement::add_node(const NodeInfo& node) {
  if (has_node(node.id)) return false;
  nodes_.push_back(node);
  ++epoch_;
  rebuild();
  return true;
}

bool Placement::remove_node(NodeId id) {
  const auto it = std::find_if(nodes_.begin(), nodes_.end(),
                               [&](const NodeInfo& n) { return n.id == id; });
  if (it == nodes_.end()) return false;
  nodes_.erase(it);
  ++epoch_;
  rebuild();
  return true;
}

void Placement::rebuild() {
  ring_.clear();
  domain_ring_.clear();
  domains_.clear();
  domain_rings_.clear();

  for (const NodeInfo& n : nodes_) {
    for (std::size_t v = 0; v < vnodes_; ++v) {
      ring_.push_back({Mix3(kVnodeSalt, n.id, v), n.id});
    }
    if (!ContainsU32(domains_, n.domain)) domains_.push_back(n.domain);
  }
  std::sort(ring_.begin(), ring_.end(),
            [](const Point& a, const Point& b) { return a.hash < b.hash; });

  std::sort(domains_.begin(), domains_.end());
  for (const std::uint32_t d : domains_) {
    for (std::size_t v = 0; v < vnodes_; ++v) {
      domain_ring_.push_back({Mix3(kVnodeSalt ^ kGroupSalt, d, v), d});
    }
    std::vector<Point> dr;
    for (const NodeInfo& n : nodes_) {
      if (n.domain != d) continue;
      for (std::size_t v = 0; v < vnodes_; ++v) {
        dr.push_back({Mix3(kVnodeSalt, n.id, v), n.id});
      }
    }
    std::sort(dr.begin(), dr.end(),
              [](const Point& a, const Point& b) { return a.hash < b.hash; });
    domain_rings_.emplace_back(d, std::move(dr));
  }
  std::sort(domain_ring_.begin(), domain_ring_.end(),
            [](const Point& a, const Point& b) { return a.hash < b.hash; });
}

NodeId Placement::lookup_free(const std::vector<Point>& ring,
                              std::uint64_t h,
                              const std::vector<NodeId>& used,
                              std::uint64_t* at) const {
  auto it = std::lower_bound(
      ring.begin(), ring.end(), h,
      [](const Point& p, std::uint64_t v) { return p.hash < v; });
  // Walk clockwise, skipping used nodes; one full lap means every node
  // on this ring is used.
  for (std::size_t step = 0; step < ring.size(); ++step) {
    if (it == ring.end()) it = ring.begin();
    if (!Contains(used, it->node)) {
      if (at != nullptr) *at = it->hash;
      return it->node;
    }
    ++it;
  }
  return kClientId;
}

NodeId Placement::lookup(const std::vector<Point>& ring, std::uint64_t h,
                         const std::vector<NodeId>& used) const {
  if (ring.empty()) return kClientId;
  const NodeId free = lookup_free(ring, h, used);
  if (free != kClientId) return free;
  // Every node is used: fall back to the plain successor so wide
  // stripes still place on small memberships.
  auto it = std::lower_bound(
      ring.begin(), ring.end(), h,
      [](const Point& p, std::uint64_t v) { return p.hash < v; });
  if (it == ring.end()) it = ring.begin();
  return it->node;
}

const std::vector<Placement::Point>& Placement::domain_ring(
    std::uint32_t domain) const {
  for (const auto& [d, ring] : domain_rings_) {
    if (d == domain) return ring;
  }
  static const std::vector<Point> kEmpty;
  return kEmpty;
}

std::vector<NodeId> Placement::table(std::uint64_t stripe_id,
                                     const Geometry& geom) const {
  std::vector<NodeId> out;
  if (nodes_.empty() || !geom.valid()) return out;
  const std::uint32_t total = geom.total_shards();
  out.assign(total, kClientId);
  std::vector<NodeId> used;

  if (geom.local == 0) {
    // Plain RS: each shard chases its own ring point; distinct nodes
    // while membership allows.
    for (std::uint32_t j = 0; j < total; ++j) {
      const NodeId n =
          lookup(ring_, Mix3(kShardSalt, stripe_id, j), used);
      out[j] = n;
      if (used.size() < nodes_.size()) used.push_back(n);
      if (used.size() == nodes_.size()) used.clear();
    }
    return out;
  }

  // LRC: every shard skips the nodes this stripe already used (reuse
  // starts over once all are used, as for RS).
  const auto take = [&](NodeId n) {
    if (!Contains(used, n)) used.push_back(n);
    if (used.size() == nodes_.size()) used.clear();
  };

  // Each group goes to one failure domain (distinct per group when the
  // cluster has enough domains), on that domain's free nodes. A member
  // the domain has no free node for spills onto a free node elsewhere
  // once the global parities are placed, so no node holds two members
  // of a group while nodes >= shards.
  std::vector<std::uint32_t> group_domains;
  std::vector<std::uint32_t> spilled;
  for (std::uint32_t g = 0; g < geom.groups(); ++g) {
    const std::uint64_t h = Mix3(kGroupSalt, stripe_id, g);
    std::uint32_t dom = 0;
    {
      // Domain lookup with skip over domains already claimed by other
      // groups of this stripe, while spare domains remain.
      auto it = std::lower_bound(
          domain_ring_.begin(), domain_ring_.end(), h,
          [](const Point& p, std::uint64_t v) { return p.hash < v; });
      dom = domains_.empty() ? 0 : domains_.front();
      const bool can_skip = group_domains.size() < domains_.size();
      for (std::size_t step = 0; step < domain_ring_.size(); ++step) {
        if (it == domain_ring_.end()) it = domain_ring_.begin();
        const std::uint32_t cand = static_cast<std::uint32_t>(it->node);
        if (!can_skip || !ContainsU32(group_domains, cand)) {
          dom = cand;
          break;
        }
        ++it;
      }
    }
    group_domains.push_back(dom);

    const std::vector<Point>& dr = domain_ring(dom);
    for (const std::uint32_t member : geom.group_members(g)) {
      const std::uint64_t mh = Mix3(kShardSalt, stripe_id, member);
      const NodeId n = lookup_free(dr, mh, used);
      if (n == kClientId) {
        spilled.push_back(member);
        continue;
      }
      out[member] = n;
      take(n);
    }
  }

  // Global parities: the first domain no group claimed that still has
  // a free node, in ring order from the parity's point; else any free
  // node.
  for (std::uint32_t j = geom.k; j < geom.k + geom.global; ++j) {
    const std::uint64_t h = Mix3(kGlobalSalt, stripe_id, j);
    NodeId n = kClientId;
    if (group_domains.size() < domains_.size()) {
      std::vector<std::uint32_t> tried = group_domains;
      auto it = std::lower_bound(
          domain_ring_.begin(), domain_ring_.end(), h,
          [](const Point& p, std::uint64_t v) { return p.hash < v; });
      for (std::size_t step = 0;
           step < domain_ring_.size() && tried.size() < domains_.size() &&
           n == kClientId;
           ++step, ++it) {
        if (it == domain_ring_.end()) it = domain_ring_.begin();
        const std::uint32_t cand = static_cast<std::uint32_t>(it->node);
        if (ContainsU32(tried, cand)) continue;
        tried.push_back(cand);
        n = lookup_free(domain_ring(cand), h, used);
      }
    }
    if (n == kClientId) n = lookup_free(ring_, h, used);
    out[j] = n;
    take(n);
  }

  // Spilled members last, the closest (member, free node) pair on the
  // ring first: matching by ring distance instead of member order keeps
  // one node leaving from cascading through every later spill.
  while (!spilled.empty()) {
    auto best = spilled.end();
    NodeId best_node = kClientId;
    std::uint64_t best_dist = 0;
    for (auto it = spilled.begin(); it != spilled.end(); ++it) {
      const std::uint64_t mh = Mix3(kShardSalt, stripe_id, *it);
      std::uint64_t at = 0;
      // take() never leaves every node used, so a free node exists.
      const NodeId n = lookup_free(ring_, mh, used, &at);
      if (best == spilled.end() || at - mh < best_dist) {
        best = it;
        best_node = n;
        best_dist = at - mh;
      }
    }
    out[*best] = best_node;
    take(best_node);
    spilled.erase(best);
  }
  return out;
}

NodeId Placement::node_of(std::uint64_t stripe_id, std::uint32_t shard,
                          const Geometry& geom) const {
  const std::vector<NodeId> t = table(stripe_id, geom);
  return shard < t.size() ? t[shard] : kClientId;
}

}  // namespace cluster
