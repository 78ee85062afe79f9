// Placement-ring invariants the cluster tier depends on: determinism
// (tables are pure functions of membership + stripe id), minimal
// movement on membership change, distinct-node spreading (RS and LRC),
// and the LRC failure-domain rule — a local group inside one domain
// when the domain can hold it, spilled onto other nodes when it cannot,
// global parities elsewhere.
#include "cluster/placement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

#include "ec/lrc.h"

namespace {

using cluster::Geometry;
using cluster::NodeId;
using cluster::NodeInfo;
using cluster::Placement;

std::vector<NodeInfo> FlatNodes(std::size_t n) {
  std::vector<NodeInfo> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back({static_cast<NodeId>(i + 1),
                     static_cast<std::uint32_t>(i)});
  }
  return nodes;
}

// 9 nodes in 3 racks: n1-n3 rack 0, n4-n6 rack 1, n7-n9 rack 2.
std::vector<NodeInfo> RackedNodes() {
  std::vector<NodeInfo> nodes;
  for (std::size_t i = 0; i < 9; ++i) {
    nodes.push_back({static_cast<NodeId>(i + 1),
                     static_cast<std::uint32_t>(i / 3)});
  }
  return nodes;
}

// n nodes spread round-robin over `domains` failure domains (node i in
// domain i % domains), the way LocalCluster assigns them.
std::vector<NodeInfo> SpreadNodes(std::size_t n, std::size_t domains) {
  std::vector<NodeInfo> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back({static_cast<NodeId>(i + 1),
                     static_cast<std::uint32_t>(i % domains)});
  }
  return nodes;
}

constexpr Geometry kRs{.k = 4, .global = 2, .local = 0, .block_size = 4096};
constexpr Geometry kLrc{.k = 4, .global = 2, .local = 2, .block_size = 4096};

TEST(GeometryTest, ShardLayout) {
  EXPECT_EQ(kLrc.total_shards(), 8u);
  EXPECT_EQ(kLrc.group_size(), 2u);
  EXPECT_TRUE(kLrc.is_data(0));
  EXPECT_TRUE(kLrc.is_global(4));
  EXPECT_TRUE(kLrc.is_global(5));
  EXPECT_TRUE(kLrc.is_local_parity(6));
  EXPECT_TRUE(kLrc.is_local_parity(7));
  // Group 0 = data {0,1} + local parity 6; group 1 = {2,3} + 7.
  EXPECT_EQ(kLrc.group_of(0), 0);
  EXPECT_EQ(kLrc.group_of(1), 0);
  EXPECT_EQ(kLrc.group_of(2), 1);
  EXPECT_EQ(kLrc.group_of(3), 1);
  EXPECT_EQ(kLrc.group_of(6), 0);
  EXPECT_EQ(kLrc.group_of(7), 1);
  EXPECT_EQ(kLrc.group_of(4), -1);  // global parity: all groups
  EXPECT_EQ(kLrc.group_members(0),
            (std::vector<std::uint32_t>{0, 1, 6}));
  EXPECT_EQ(kLrc.group_members(1),
            (std::vector<std::uint32_t>{2, 3, 7}));
  EXPECT_EQ(kRs.group_of(0), -1);
}

TEST(GeometryTest, Validity) {
  EXPECT_TRUE(kRs.valid());
  EXPECT_TRUE(kLrc.valid());
  EXPECT_FALSE((Geometry{.k = 0, .global = 2, .block_size = 4096}.valid()));
  EXPECT_FALSE((Geometry{.k = 4, .global = 0, .local = 0,
                         .block_size = 4096}
                    .valid()));
  EXPECT_FALSE((Geometry{.k = 4, .global = 2, .block_size = 0}.valid()));
  EXPECT_FALSE(
      (Geometry{.k = 4, .global = 2, .local = 5, .block_size = 64}.valid()));
}

TEST(PlacementTest, DeterministicAcrossReplicas) {
  Placement a(FlatNodes(8));
  Placement b(FlatNodes(8));
  for (std::uint64_t stripe = 0; stripe < 256; ++stripe) {
    EXPECT_EQ(a.table(stripe, kRs), b.table(stripe, kRs)) << stripe;
    EXPECT_EQ(a.table(stripe, kLrc), b.table(stripe, kLrc)) << stripe;
  }
}

TEST(PlacementTest, InsertionOrderIrrelevant) {
  auto nodes = FlatNodes(8);
  Placement a(nodes);
  std::reverse(nodes.begin(), nodes.end());
  Placement b(nodes);
  for (std::uint64_t stripe = 0; stripe < 64; ++stripe) {
    EXPECT_EQ(a.table(stripe, kRs), b.table(stripe, kRs)) << stripe;
  }
}

TEST(PlacementTest, DistinctNodesWhileMembershipAllows) {
  Placement p(FlatNodes(8));
  for (std::uint64_t stripe = 0; stripe < 128; ++stripe) {
    const auto table = p.table(stripe, kRs);
    ASSERT_EQ(table.size(), kRs.total_shards());
    std::set<NodeId> distinct(table.begin(), table.end());
    EXPECT_EQ(distinct.size(), table.size()) << "stripe " << stripe;
  }
}

TEST(PlacementTest, SmallClusterStillPlacesWideStripes) {
  Placement p(FlatNodes(3));  // 3 nodes, 6-shard stripes
  for (std::uint64_t stripe = 0; stripe < 32; ++stripe) {
    const auto table = p.table(stripe, kRs);
    ASSERT_EQ(table.size(), kRs.total_shards());
    for (const NodeId n : table) {
      EXPECT_GE(n, 1u);
      EXPECT_LE(n, 3u);
    }
  }
}

TEST(PlacementTest, LoadRoughlyBalanced) {
  Placement p(FlatNodes(8));
  std::map<NodeId, std::size_t> load;
  const std::size_t stripes = 2000;
  for (std::uint64_t stripe = 0; stripe < stripes; ++stripe) {
    for (const NodeId n : p.table(stripe, kRs)) ++load[n];
  }
  const double mean =
      static_cast<double>(stripes * kRs.total_shards()) / 8.0;
  for (const auto& [node, count] : load) {
    EXPECT_GT(count, mean * 0.6) << "node " << node;
    EXPECT_LT(count, mean * 1.4) << "node " << node;
  }
}

TEST(PlacementTest, MinimalMovementOnJoin) {
  Placement p(FlatNodes(8));
  const std::size_t stripes = 500;
  std::vector<std::vector<NodeId>> before;
  for (std::uint64_t s = 0; s < stripes; ++s) {
    before.push_back(p.table(s, kRs));
  }
  ASSERT_TRUE(p.add_node({9, 8}));
  std::size_t moved = 0, total = 0;
  for (std::uint64_t s = 0; s < stripes; ++s) {
    const auto after = p.table(s, kRs);
    for (std::size_t j = 0; j < after.size(); ++j) {
      ++total;
      if (after[j] != before[s][j]) ++moved;
    }
  }
  // Consistent hashing: one of 9 nodes joining should re-home roughly
  // 1/9 of shards; allow generous slack but reject full reshuffles.
  EXPECT_LT(moved, total * 30 / 100)
      << moved << " of " << total << " shards moved";
  EXPECT_GT(moved, 0u);  // the new node must take SOME load
}

TEST(PlacementTest, RemoveOnlyMovesTheDeadNodesShards) {
  Placement p(FlatNodes(8));
  const std::size_t stripes = 500;
  std::vector<std::vector<NodeId>> before;
  for (std::uint64_t s = 0; s < stripes; ++s) {
    before.push_back(p.table(s, kRs));
  }
  const NodeId dead = 3;
  ASSERT_TRUE(p.remove_node(dead));
  std::size_t moved = 0, total = 0, was_dead = 0;
  for (std::uint64_t s = 0; s < stripes; ++s) {
    const auto after = p.table(s, kRs);
    for (std::size_t j = 0; j < after.size(); ++j) {
      ++total;
      EXPECT_NE(after[j], dead);
      if (before[s][j] == dead) ++was_dead;
      if (after[j] != before[s][j]) ++moved;
    }
  }
  // Everything the dead node held must move; little else should.
  EXPECT_GE(moved, was_dead);
  EXPECT_LT(moved, was_dead + total * 15 / 100);
}

TEST(PlacementTest, EpochBumpsOnMembershipChange) {
  Placement p(FlatNodes(4));
  const std::uint64_t e0 = p.epoch();
  ASSERT_TRUE(p.add_node({5, 4}));
  EXPECT_GT(p.epoch(), e0);
  EXPECT_FALSE(p.add_node({5, 4}));  // duplicate id
  ASSERT_TRUE(p.remove_node(5));
  EXPECT_FALSE(p.remove_node(5));  // already gone
}

TEST(PlacementTest, LrcGroupsPinnedToOneFailureDomain) {
  Placement p(RackedNodes());
  for (std::uint64_t stripe = 0; stripe < 200; ++stripe) {
    const auto table = p.table(stripe, kLrc);
    ASSERT_EQ(table.size(), kLrc.total_shards());
    auto domain_of = [](NodeId id) { return (id - 1) / 3; };
    std::vector<std::set<NodeId>> group_domains(kLrc.groups());
    for (std::uint32_t g = 0; g < kLrc.groups(); ++g) {
      std::set<NodeId> members;
      for (const std::uint32_t shard : kLrc.group_members(g)) {
        group_domains[g].insert(domain_of(table[shard]));
        members.insert(table[shard]);
      }
      // Whole group in ONE domain, on distinct nodes inside it.
      EXPECT_EQ(group_domains[g].size(), 1u)
          << "stripe " << stripe << " group " << g;
      EXPECT_EQ(members.size(), kLrc.group_members(g).size())
          << "stripe " << stripe << " group " << g;
    }
    // Distinct groups in distinct domains, global parity in neither:
    // losing one rack then costs at most one group OR the globals.
    EXPECT_NE(*group_domains[0].begin(), *group_domains[1].begin())
        << "stripe " << stripe;
    for (std::uint32_t shard = kLrc.k; shard < kLrc.k + kLrc.global;
         ++shard) {
      const auto dom = domain_of(table[shard]);
      EXPECT_NE(dom, *group_domains[0].begin()) << "stripe " << stripe;
      EXPECT_NE(dom, *group_domains[1].begin()) << "stripe " << stripe;
    }
  }
}

TEST(PlacementTest, LrcShardsOnDistinctNodesWhenMembershipAllows) {
  // 8 nodes in 4 two-node domains (a group of three cannot fit its
  // domain) and in 8 one-node domains.
  for (const std::size_t domains : {4u, 8u}) {
    SCOPED_TRACE("domains " + std::to_string(domains));
    const auto nodes = SpreadNodes(8, domains);
    Placement p(nodes);
    for (std::uint64_t stripe = 0; stripe < 512; ++stripe) {
      const auto table = p.table(stripe, kLrc);
      ASSERT_EQ(table.size(), kLrc.total_shards());
      const std::set<NodeId> distinct(table.begin(), table.end());
      EXPECT_EQ(distinct.size(), table.size()) << "stripe " << stripe;
      // A group fills one domain before it spills: some domain holds as
      // many of its members as the domain has nodes.
      for (std::uint32_t g = 0; g < kLrc.groups(); ++g) {
        std::map<std::uint32_t, std::size_t> per_domain;
        for (const std::uint32_t shard : kLrc.group_members(g)) {
          ++per_domain[nodes[table[shard] - 1].domain];
        }
        std::size_t most = 0;
        for (const auto& [d, count] : per_domain) most = std::max(most, count);
        EXPECT_EQ(most, 8 / domains) << "stripe " << stripe << " group " << g;
      }
    }
  }
}

TEST(PlacementTest, LrcSurvivesAnyWholeDomainLoss) {
  constexpr std::size_t kBlock = 64;
  const ec::LrcCodec codec(kLrc.k, kLrc.global, kLrc.local);
  const std::uint32_t total = kLrc.total_shards();
  std::mt19937_64 rng(5);
  std::vector<std::vector<std::byte>> want(total,
                                           std::vector<std::byte>(kBlock));
  std::vector<const std::byte*> data;
  std::vector<std::byte*> parity;
  for (std::uint32_t j = 0; j < total; ++j) {
    if (j < kLrc.k) {
      for (auto& b : want[j]) b = static_cast<std::byte>(rng());
      data.push_back(want[j].data());
    } else {
      parity.push_back(want[j].data());
    }
  }
  codec.encode(kBlock, data, parity);

  for (const std::size_t domains : {4u, 8u}) {
    SCOPED_TRACE("domains " + std::to_string(domains));
    const auto nodes = SpreadNodes(8, domains);
    Placement p(nodes);
    for (std::uint64_t stripe = 0; stripe < 128; ++stripe) {
      const auto table = p.table(stripe, kLrc);
      for (std::uint32_t lost = 0; lost < domains; ++lost) {
        std::vector<std::size_t> erasures;
        for (std::uint32_t j = 0; j < total; ++j) {
          if (nodes[table[j] - 1].domain == lost) erasures.push_back(j);
        }
        auto blocks = want;
        std::vector<std::byte*> ptrs;
        for (const std::size_t e : erasures) {
          std::fill(blocks[e].begin(), blocks[e].end(), std::byte{0});
        }
        for (auto& b : blocks) ptrs.push_back(b.data());
        ASSERT_TRUE(codec.decode(kBlock, ptrs, erasures))
            << "stripe " << stripe << " domain " << lost;
        EXPECT_EQ(blocks, want) << "stripe " << stripe << " domain " << lost;
      }
    }
  }
}

TEST(PlacementTest, TablesUnchangedWhereGroupsFitTheirDomains) {
  // Captured before LRC groups could spill: RS tables, and LRC tables
  // whose domains each hold a whole group, are the same byte for byte.
  const std::vector<std::vector<NodeId>> racked_lrc = {
      {9, 7, 6, 4, 3, 1, 8, 5}, {4, 5, 9, 7, 3, 2, 6, 8},
      {3, 1, 7, 9, 4, 6, 2, 8}, {5, 4, 3, 1, 9, 7, 6, 2},
      {4, 5, 2, 3, 7, 9, 6, 1}, {5, 6, 1, 3, 7, 9, 4, 2},
      {9, 8, 4, 6, 1, 2, 7, 5}, {5, 4, 3, 2, 8, 7, 6, 1},
  };
  const std::vector<std::vector<NodeId>> flat_rs = {
      {2, 1, 7, 6, 4, 8}, {4, 2, 5, 1, 7, 3}, {3, 4, 7, 5, 8, 2},
      {5, 7, 3, 4, 2, 8}, {7, 1, 2, 4, 3, 8}, {8, 7, 5, 4, 6, 3},
      {6, 3, 1, 8, 5, 2}, {7, 2, 6, 4, 8, 5},
  };
  Placement racked(RackedNodes());
  Placement flat(FlatNodes(8));
  for (std::uint64_t stripe = 0; stripe < 8; ++stripe) {
    EXPECT_EQ(racked.table(stripe, kLrc), racked_lrc[stripe]) << stripe;
    EXPECT_EQ(flat.table(stripe, kRs), flat_rs[stripe]) << stripe;
  }
}

TEST(PlacementTest, LrcRemoveOnlyMovesTheDeadNodesShardsPlusSpills) {
  // With 8 nodes a stripe uses every node, so a removal must re-home
  // one shard per stripe, and a spilled member may follow it; the rest
  // stay.
  for (const std::size_t domains : {4u, 8u}) {
    SCOPED_TRACE("domains " + std::to_string(domains));
    Placement p(SpreadNodes(8, domains));
    const std::size_t stripes = 500;
    std::vector<std::vector<NodeId>> before;
    for (std::uint64_t s = 0; s < stripes; ++s) {
      before.push_back(p.table(s, kLrc));
    }
    const NodeId dead = 3;
    ASSERT_TRUE(p.remove_node(dead));
    std::size_t moved = 0, total = 0, was_dead = 0;
    for (std::uint64_t s = 0; s < stripes; ++s) {
      const auto after = p.table(s, kLrc);
      for (std::size_t j = 0; j < after.size(); ++j) {
        ++total;
        EXPECT_NE(after[j], dead);
        if (before[s][j] == dead) ++was_dead;
        if (after[j] != before[s][j]) ++moved;
      }
    }
    EXPECT_GE(moved, was_dead);
    EXPECT_LT(moved, was_dead + total * 20 / 100);
  }
}

TEST(PlacementTest, LrcDeterministicToo) {
  Placement a(RackedNodes());
  Placement b(RackedNodes());
  for (std::uint64_t stripe = 0; stripe < 64; ++stripe) {
    EXPECT_EQ(a.table(stripe, kLrc), b.table(stripe, kLrc));
  }
}

TEST(PlacementTest, NodeOfMatchesTable) {
  Placement p(FlatNodes(6));
  for (std::uint64_t stripe = 0; stripe < 32; ++stripe) {
    const auto table = p.table(stripe, kRs);
    for (std::uint32_t j = 0; j < kRs.total_shards(); ++j) {
      EXPECT_EQ(p.node_of(stripe, j, kRs), table[j]);
    }
  }
}

TEST(PlacementTest, EmptyMembershipYieldsEmptyTable) {
  Placement p({});
  EXPECT_TRUE(p.table(7, kRs).empty());
}

}  // namespace
