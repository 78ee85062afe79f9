// Functional coverage of the cluster tier over the in-process
// LocalCluster harness: write/read round trips (RS and LRC), the
// degraded-read scope ordering (local group before global parity),
// scrub repair of dropped and bit-rotted chunks, the node's
// local-only kRepair, membership-change rebalancing and its read
// budget, the token-bucket rate limiter in virtual time, the
// cluster manifest, and per-node fault-site routing.
#include "cluster/local_cluster.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <set>

#include "cluster/coordinator.h"
#include "cluster/token_bucket.h"
#include "fault/injector.h"
#include "obs/metrics.h"

namespace {

namespace fs = std::filesystem;
using cluster::ClusterManifest;
using cluster::Geometry;
using cluster::LocalCluster;
using cluster::LocalClusterConfig;
using cluster::OpResult;
using cluster::TokenBucket;

constexpr Geometry kRs{.k = 4, .global = 2, .local = 0, .block_size = 1024};
constexpr Geometry kLrc{.k = 4, .global = 2, .local = 2, .block_size = 1024};

LocalClusterConfig Cfg(std::size_t nodes, std::size_t domains,
                       const Geometry& geom,
                       const fs::path& data_root = {}) {
  LocalClusterConfig c;
  c.nodes = nodes;
  c.domains = domains;
  c.geom = geom;
  c.data_root = data_root;
  return c;
}

std::vector<std::vector<std::byte>> MakeStripe(const Geometry& g,
                                               std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<std::byte>> data(g.k);
  for (auto& block : data) {
    block.resize(g.block_size);
    for (auto& b : block) {
      b = std::byte{static_cast<unsigned char>(rng() & 0xff)};
    }
  }
  return data;
}

std::vector<const std::byte*> Ptrs(
    const std::vector<std::vector<std::byte>>& blocks) {
  std::vector<const std::byte*> p;
  for (const auto& b : blocks) p.push_back(b.data());
  return p;
}

std::uint64_t CounterValue(const std::string& name,
                           const obs::Labels& labels) {
  return obs::Registry::Global().counter(name, labels).value();
}

class ClusterTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Injector::Global().clear(); }
};

TEST_F(ClusterTest, WriteReadRoundTripRs) {
  LocalCluster c(Cfg(6, 0, kRs));
  for (std::uint64_t s = 0; s < 8; ++s) {
    const auto data = MakeStripe(kRs, s);
    const auto ptrs = Ptrs(data);
    ASSERT_EQ(c.coordinator()
                  .write_stripe(s, std::span<const std::byte* const>(ptrs))
                  .code,
              OpResult::Code::kOk);
    for (std::uint32_t j = 0; j < kRs.k; ++j) {
      std::vector<std::byte> out;
      const OpResult r = c.coordinator().read_block(s, j, &out);
      EXPECT_EQ(r.code, OpResult::Code::kOk);
      EXPECT_EQ(out, data[j]);
    }
  }
  EXPECT_EQ(c.coordinator().tracked(), 8u);
}

TEST_F(ClusterTest, WriteReadRoundTripLrc) {
  LocalCluster c(Cfg(9, 3, kLrc));
  const auto data = MakeStripe(kLrc, 99);
  const auto ptrs = Ptrs(data);
  ASSERT_TRUE(c.coordinator()
                  .write_stripe(1, std::span<const std::byte* const>(ptrs))
                  .ok());
  // Every one of the 8 chunks must have reached a distinct node.
  std::size_t total_chunks = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    total_chunks += c.node(i).chunk_count();
  }
  EXPECT_EQ(total_chunks, kLrc.total_shards());
  std::vector<std::vector<std::byte>> out(kLrc.k);
  std::vector<std::byte*> outp;
  for (auto& b : out) {
    b.resize(kLrc.block_size);
    outp.push_back(b.data());
  }
  ASSERT_TRUE(c.coordinator()
                  .read_stripe(1, std::span<std::byte* const>(outp))
                  .ok());
  for (std::uint32_t j = 0; j < kLrc.k; ++j) EXPECT_EQ(out[j], data[j]);
}

TEST_F(ClusterTest, DegradedReadServedFromLocalGroup) {
  LocalCluster c(Cfg(9, 3, kLrc));
  const auto data = MakeStripe(kLrc, 7);
  const auto ptrs = Ptrs(data);
  ASSERT_TRUE(c.coordinator()
                  .write_stripe(5, std::span<const std::byte* const>(ptrs))
                  .ok());
  const auto table = c.placement().table(5, kLrc);
  // Kill shard 0's home; its local group (shards 0,1,6 in one rack)
  // still has k_group survivors, so the degraded read must be served
  // from the LOCAL group without touching global parity.
  const std::uint64_t local_before = CounterValue(
      "dialga_cluster_degraded_read_total", {{"scope", "local"}});
  const std::uint64_t global_before = CounterValue(
      "dialga_cluster_degraded_read_total", {{"scope", "global"}});
  c.kill(table[0] - 1);
  std::vector<std::byte> out;
  const OpResult r = c.coordinator().read_block(5, 0, &out);
  ASSERT_EQ(r.code, OpResult::Code::kDegraded) << r.detail;
  EXPECT_EQ(out, data[0]);
  EXPECT_EQ(CounterValue("dialga_cluster_degraded_read_total",
                         {{"scope", "local"}}),
            local_before + 1);
  EXPECT_EQ(CounterValue("dialga_cluster_degraded_read_total",
                         {{"scope", "global"}}),
            global_before);
}

TEST_F(ClusterTest, DegradedReadFallsBackToGlobalWhenGroupIsGone) {
  LocalCluster c(Cfg(9, 3, kLrc));
  const auto data = MakeStripe(kLrc, 11);
  const auto ptrs = Ptrs(data);
  ASSERT_TRUE(c.coordinator()
                  .write_stripe(2, std::span<const std::byte* const>(ptrs))
                  .ok());
  const auto table = c.placement().table(2, kLrc);
  // Losing the whole rack holding group 0 (shards 0, 1 and local
  // parity 6 share a domain) exceeds the local parity's budget; the
  // read must fall back to a global reconstruction and still be
  // bit-correct.
  const std::uint64_t global_before = CounterValue(
      "dialga_cluster_degraded_read_total", {{"scope", "global"}});
  for (const std::uint32_t shard : kLrc.group_members(0)) {
    c.kill(table[shard] - 1);
  }
  std::vector<std::byte> out;
  const OpResult r = c.coordinator().read_block(2, 0, &out);
  ASSERT_EQ(r.code, OpResult::Code::kDegraded) << r.detail;
  EXPECT_EQ(out, data[0]);
  EXPECT_GT(CounterValue("dialga_cluster_degraded_read_total",
                         {{"scope", "global"}}),
            global_before);
}

TEST_F(ClusterTest, QuorumLossIsNamedNotSilent) {
  LocalCluster c(Cfg(6, 0, kRs));
  const auto data = MakeStripe(kRs, 3);
  const auto ptrs = Ptrs(data);
  ASSERT_TRUE(c.coordinator()
                  .write_stripe(9, std::span<const std::byte* const>(ptrs))
                  .ok());
  const auto table = c.placement().table(9, kRs);
  // Kill m+1 = 3 homes: fewer than k survivors remain reachable.
  for (std::uint32_t j = 0; j < 3; ++j) c.kill(table[j] - 1);
  std::vector<std::byte> out;
  const OpResult r = c.coordinator().read_block(9, 0, &out);
  EXPECT_EQ(r.code, OpResult::Code::kQuorumLoss);
  EXPECT_FALSE(r.ok());
  EXPECT_GT(CounterValue("dialga_cluster_quorum_loss_total", {}), 0u);
}

TEST_F(ClusterTest, LocalDegradedReadAtOddBlockSize) {
  // The helper's group XOR runs the vector kernel; a block size that is
  // not a multiple of 64 exercises its tail. Each member of group 0 is
  // read with its home down: data targets and the local parity alike.
  constexpr Geometry kOdd{.k = 4, .global = 2, .local = 2, .block_size = 1000};
  LocalCluster c(Cfg(9, 3, kOdd));
  const auto data = MakeStripe(kOdd, 13);
  const auto ptrs = Ptrs(data);
  ASSERT_TRUE(c.coordinator()
                  .write_stripe(3, std::span<const std::byte* const>(ptrs))
                  .ok());
  const auto table = c.placement().table(3, kOdd);
  std::vector<std::vector<std::byte>> want(kOdd.total_shards());
  for (std::uint32_t j = 0; j < kOdd.total_shards(); ++j) {
    ASSERT_TRUE(c.coordinator().read_block(3, j, &want[j]).ok());
  }
  for (const std::uint32_t shard : kOdd.group_members(0)) {
    SCOPED_TRACE("shard " + std::to_string(shard));
    const std::uint64_t local_before = CounterValue(
        "dialga_cluster_degraded_read_total", {{"scope", "local"}});
    c.kill(table[shard] - 1);
    std::vector<std::byte> out;
    const OpResult r = c.coordinator().read_block(3, shard, &out);
    c.revive(table[shard] - 1);
    ASSERT_EQ(r.code, OpResult::Code::kDegraded) << r.detail;
    EXPECT_EQ(out, want[shard]);
    EXPECT_EQ(CounterValue("dialga_cluster_degraded_read_total",
                           {{"scope", "local"}}),
              local_before + 1);
  }
  EXPECT_EQ(want[0], data[0]);
}

// The benchmark's cluster shape: 8 nodes in 4 two-node domains. Every
// stripe's eight shards land on distinct nodes, so one node loss costs
// each group at most one member.
constexpr Geometry kLrc8{.k = 4, .global = 2, .local = 2, .block_size = 4096};

/// Group 0's two data members: with both homes down the group can help
/// neither of them.
constexpr std::uint32_t kMateA = 0, kMateB = 1;

/// Kill the homes of kMateA and kMateB of `stripe` and heartbeat.
/// Returns the dead node ids: two, as placement spreads a stripe over
/// distinct nodes at 8 nodes.
std::set<cluster::NodeId> KillGroupMates(LocalCluster& c,
                                         std::uint64_t stripe) {
  const auto table = c.placement().table(stripe, kLrc8);
  const std::set<cluster::NodeId> dead{table[kMateA], table[kMateB]};
  for (const cluster::NodeId n : dead) c.kill(n - 1);
  c.coordinator().heartbeat();
  return dead;
}

/// Healthy-path copy of every shard of `stripe` (data and parity).
std::vector<std::vector<std::byte>> ReadAllShards(LocalCluster& c,
                                                  std::uint64_t stripe) {
  std::vector<std::vector<std::byte>> all(kLrc8.total_shards());
  for (std::uint32_t j = 0; j < kLrc8.total_shards(); ++j) {
    EXPECT_EQ(c.coordinator().read_block(stripe, j, &all[j]).code,
              OpResult::Code::kOk);
  }
  return all;
}

TEST_F(ClusterTest, ColocatedGroupLossReadsKSurvivorsWithoutLocalAttempt) {
  // Two members of one group lost at once (here: both homes down) leave
  // the group nothing to XOR; each of them is read globally from
  // exactly k survivors, with no local attempt that cannot succeed.
  LocalCluster c(Cfg(8, 4, kLrc8));
  const std::uint64_t stripe = 5;
  const auto data = MakeStripe(kLrc8, 41);
  const auto ptrs = Ptrs(data);
  ASSERT_TRUE(c.coordinator()
                  .write_stripe(stripe, std::span<const std::byte* const>(ptrs))
                  .ok());
  const auto want = ReadAllShards(c, stripe);
  const auto table = c.placement().table(stripe, kLrc8);
  const std::set<cluster::NodeId> dead = KillGroupMates(c, stripe);
  ASSERT_EQ(dead.size(), 2u) << "group mates share a home";

  auto counter = [](const char* name, const char* key, const char* value) {
    return CounterValue(name, {{key, value}});
  };
  std::size_t global_reads = 0;
  for (std::uint32_t j = 0; j < kLrc8.total_shards(); ++j) {
    SCOPED_TRACE("shard " + std::to_string(j));
    // A read goes local only when the target has a group and no other
    // member lives on a dead node.
    bool local = kLrc8.group_of(j) >= 0;
    if (local) {
      for (const std::uint32_t m :
           kLrc8.group_members(static_cast<std::uint32_t>(kLrc8.group_of(j)))) {
        if (m != j && dead.count(table[m]) != 0) local = false;
      }
    }
    const auto global0 = counter("dialga_cluster_degraded_read_total",
                                 "scope", "global");
    const auto local0 = counter("dialga_cluster_degraded_read_total",
                                "scope", "local");
    const auto reads0 = counter("dialga_cluster_rpc_total", "type", "read");
    const auto dreads0 =
        counter("dialga_cluster_rpc_total", "type", "degraded-read");
    std::vector<std::byte> out;
    const OpResult r = c.coordinator().read_block(stripe, j, &out);
    EXPECT_EQ(out, want[j]);
    const auto global1 = counter("dialga_cluster_degraded_read_total",
                                 "scope", "global");
    const auto local1 = counter("dialga_cluster_degraded_read_total",
                                "scope", "local");
    const auto reads1 = counter("dialga_cluster_rpc_total", "type", "read");
    const auto dreads1 =
        counter("dialga_cluster_rpc_total", "type", "degraded-read");
    if (dead.count(table[j]) == 0) {
      EXPECT_EQ(r.code, OpResult::Code::kOk) << r.detail;
      EXPECT_EQ(reads1 - reads0, 1u);
      EXPECT_EQ(global1, global0);
      EXPECT_EQ(local1, local0);
    } else if (local) {
      EXPECT_EQ(r.code, OpResult::Code::kDegraded) << r.detail;
      EXPECT_EQ(local1 - local0, 1u);
      EXPECT_EQ(dreads1 - dreads0, 1u);
      EXPECT_EQ(global1, global0);
    } else {
      EXPECT_EQ(r.code, OpResult::Code::kDegraded) << r.detail;
      EXPECT_EQ(global1 - global0, 1u);
      EXPECT_EQ(reads1 - reads0, kLrc8.k) << "fetches beyond the k survivors";
      EXPECT_EQ(dreads1, dreads0) << "local attempt that cannot succeed";
      EXPECT_EQ(local1, local0);
      ++global_reads;
    }
  }
  // Exactly the two lost group members went global.
  EXPECT_EQ(global_reads, 2u);
  for (std::uint32_t j = 0; j < kLrc8.k; ++j) EXPECT_EQ(want[j], data[j]);
}

TEST_F(ClusterTest, CorruptSurvivorIsReplacedByTheNextOne) {
  LocalCluster c(Cfg(8, 4, kLrc8));
  const std::uint64_t stripe = 6;
  const auto data = MakeStripe(kLrc8, 42);
  const auto ptrs = Ptrs(data);
  ASSERT_TRUE(c.coordinator()
                  .write_stripe(stripe, std::span<const std::byte* const>(ptrs))
                  .ok());
  const auto want = ReadAllShards(c, stripe);
  const auto table = c.placement().table(stripe, kLrc8);
  // Target: a data member whose group mate's home is down too, so the
  // read must go global.
  const std::uint32_t target = kMateA;
  const std::set<cluster::NodeId> dead = KillGroupMates(c, stripe);
  ASSERT_EQ(dead.size(), 2u) << "group mates share a home";
  // Corrupt the first survivor the fetch order reaches.
  std::uint32_t first = 0;
  while (first == target || dead.count(table[first]) != 0) ++first;
  ASSERT_TRUE(c.node(table[first] - 1).corrupt_chunk(stripe, first));

  const std::uint64_t reads0 =
      CounterValue("dialga_cluster_rpc_total", {{"type", "read"}});
  std::vector<std::byte> out;
  const OpResult r = c.coordinator().read_block(stripe, target, &out);
  ASSERT_EQ(r.code, OpResult::Code::kDegraded) << r.detail;
  EXPECT_EQ(out, want[target]);
  EXPECT_EQ(CounterValue("dialga_cluster_rpc_total", {{"type", "read"}}) -
                reads0,
            kLrc8.k + 1u);
}

TEST_F(ClusterTest, GlobalReadPassesOverADependentLocalParity) {
  // d3, g0 and g1 of one stripe are dropped. The first k survivors in
  // shard order would be d0, d1, d2 and L0 = d0 ^ d1, a singular set;
  // the stripe is still decodable from d0, d1, d2 and L1 = d2 ^ d3.
  LocalCluster c(Cfg(8, 4, kLrc8));
  c.coordinator().set_read_repair(false);
  const std::uint64_t stripe = 9;
  const auto data = MakeStripe(kLrc8, 44);
  const auto ptrs = Ptrs(data);
  ASSERT_TRUE(c.coordinator()
                  .write_stripe(stripe, std::span<const std::byte* const>(ptrs))
                  .ok());
  const auto want = ReadAllShards(c, stripe);
  const auto table = c.placement().table(stripe, kLrc8);
  const std::uint32_t d3 = 3, g0 = 4, g1 = 5, l0 = 6;
  for (const std::uint32_t j : {d3, g0, g1}) {
    ASSERT_TRUE(c.node(table[j] - 1).drop_chunk(stripe, j));
  }

  const std::uint64_t reads0 =
      CounterValue("dialga_cluster_rpc_total", {{"type", "read"}});
  std::vector<std::byte> out;
  const OpResult r = c.coordinator().read_block(stripe, g0, &out);
  ASSERT_EQ(r.code, OpResult::Code::kDegraded) << r.detail;
  EXPECT_EQ(out, want[g0]);
  // The healthy attempt on g0's home, then d0, d1, d2, the missing d3
  // and g1, and L1: L0 is never fetched.
  EXPECT_EQ(CounterValue("dialga_cluster_rpc_total", {{"type", "read"}}) -
                reads0,
            1u + kLrc8.k + 2u);
  EXPECT_FALSE(c.node(table[g0] - 1).has_chunk(stripe, g0))
      << "read-repair is off";
  EXPECT_TRUE(c.node(table[l0] - 1).has_chunk(stripe, l0));

  const auto report = c.coordinator().scrub_pass();
  EXPECT_EQ(report.repaired, 3u);
  EXPECT_EQ(report.unrecoverable, 0u);
  for (std::uint32_t j = 0; j < kLrc8.total_shards(); ++j) {
    SCOPED_TRACE("shard " + std::to_string(j));
    std::vector<std::byte> healthy;
    EXPECT_EQ(c.coordinator().read_block(stripe, j, &healthy).code,
              OpResult::Code::kOk);
    EXPECT_EQ(healthy, want[j]);
  }
}

TEST_F(ClusterTest, QuorumLossNamesTheSurvivorCount) {
  LocalCluster c(Cfg(8, 4, kLrc8));
  const auto data = MakeStripe(kLrc8, 43);
  const auto ptrs = Ptrs(data);
  ASSERT_TRUE(c.coordinator()
                  .write_stripe(6, std::span<const std::byte* const>(ptrs))
                  .ok());
  const auto table = c.placement().table(6, kLrc8);
  // Take homes down in shard order until fewer than k other shards are
  // reachable; k + 1 homes always suffice.
  std::set<cluster::NodeId> down;
  auto survivors = [&] {
    std::uint32_t n = 0;
    for (std::uint32_t j = 1; j < kLrc8.total_shards(); ++j) {
      n += down.count(table[j]) == 0;
    }
    return n;
  };
  for (std::uint32_t j = 0; survivors() >= kLrc8.k; ++j) {
    down.insert(table[j]);
    c.kill(table[j] - 1);
  }
  EXPECT_LE(down.size(), kLrc8.k + 1);
  c.coordinator().heartbeat();
  const std::uint64_t losses =
      CounterValue("dialga_cluster_quorum_loss_total", {});
  std::vector<std::byte> out;
  const OpResult r = c.coordinator().read_block(6, 0, &out);
  EXPECT_EQ(r.code, OpResult::Code::kQuorumLoss);
  EXPECT_EQ(r.detail, std::to_string(survivors()) + " of 4 required survivors");
  EXPECT_EQ(CounterValue("dialga_cluster_quorum_loss_total", {}), losses + 1);
}

TEST_F(ClusterTest, ScrubRepairsDroppedAndCorruptChunks) {
  LocalCluster c(Cfg(6, 0, kRs));
  const auto data = MakeStripe(kRs, 21);
  const auto ptrs = Ptrs(data);
  ASSERT_TRUE(c.coordinator()
                  .write_stripe(4, std::span<const std::byte* const>(ptrs))
                  .ok());
  const auto table = c.placement().table(4, kRs);
  ASSERT_TRUE(c.node(table[1] - 1).drop_chunk(4, 1));
  ASSERT_TRUE(c.node(table[2] - 1).corrupt_chunk(4, 2));
  const auto report = c.coordinator().scrub_pass();
  EXPECT_EQ(report.stripes, 1u);
  EXPECT_EQ(report.repaired, 2u);
  EXPECT_EQ(report.unrecoverable, 0u);
  // Healthy reads again, bit-correct.
  for (std::uint32_t j = 0; j < kRs.k; ++j) {
    std::vector<std::byte> out;
    EXPECT_EQ(c.coordinator().read_block(4, j, &out).code,
              OpResult::Code::kOk);
    EXPECT_EQ(out, data[j]);
  }
}

TEST_F(ClusterTest, NodeRepairIsLocalOnly) {
  // A node's kRepair only XORs the target's group. With a group mate's
  // chunk gone it answers kNeedGlobal and stores nothing: global
  // reconstruction is the coordinator's.
  LocalCluster c(Cfg(9, 3, kLrc));
  const auto data = MakeStripe(kLrc, 31);
  const auto ptrs = Ptrs(data);
  ASSERT_TRUE(c.coordinator()
                  .write_stripe(8, std::span<const std::byte* const>(ptrs))
                  .ok());
  const auto table = c.placement().table(8, kLrc);
  // Group 0 is data shards 0, 1 and local parity 6: rebuild 0 onto its
  // home through 6's home while 1's chunk is missing.
  const auto members = kLrc.group_members(0);
  ASSERT_EQ(members.size(), 3u);
  const std::uint32_t target = members[0], mate = members[1];
  const std::uint32_t helper = members[2];
  ASSERT_TRUE(c.node(table[target] - 1).drop_chunk(8, target));
  ASSERT_TRUE(c.node(table[mate] - 1).drop_chunk(8, mate));
  cluster::Frame req;
  req.type = cluster::MsgType::kRepair;
  req.stripe = 8;
  req.shard = target;
  req.aux = table[target];
  req.geom = kLrc;
  req.placement = table;
  cluster::Frame resp;
  ASSERT_EQ(c.node(table[helper] - 1).handle(req, &resp), 0);
  EXPECT_EQ(resp.type, cluster::MsgType::kRepairResp);
  EXPECT_EQ(resp.status, cluster::WireStatus::kNeedGlobal);
  EXPECT_FALSE(c.node(table[target] - 1).has_chunk(8, target));
}

TEST_F(ClusterTest, RepairSkipsLocalAttemptWhenGroupMemberKnownDown) {
  LocalCluster c(Cfg(9, 3, kLrc));
  const auto data = MakeStripe(kLrc, 32);
  const auto ptrs = Ptrs(data);
  ASSERT_TRUE(c.coordinator()
                  .write_stripe(3, std::span<const std::byte* const>(ptrs))
                  .ok());
  const auto table = c.placement().table(3, kLrc);
  // Drop data shard 0 on its live home and kill the home of group mate
  // 1: a helper could only answer kNeedGlobal, so scrub must not ask.
  const std::uint32_t target = 0, mate = 1;
  ASSERT_EQ(kLrc.group_of(mate), kLrc.group_of(target));
  ASSERT_NE(table[target], table[mate]);
  ASSERT_TRUE(c.node(table[target] - 1).drop_chunk(3, target));
  c.kill(table[mate] - 1);
  c.coordinator().heartbeat();
  // Scrub reads every chunk whose home is up once to verify it.
  std::uint64_t verify_reads = 0;
  for (const cluster::NodeId home : table) {
    verify_reads += home != table[mate];
  }

  const auto rpcs = [](const char* type) {
    return CounterValue("dialga_cluster_rpc_total", {{"type", type}});
  };
  const std::uint64_t repairs0 = rpcs("repair");
  const std::uint64_t reads0 = rpcs("read");
  const auto report = c.coordinator().scrub_pass();
  EXPECT_EQ(report.repaired, 1u);
  EXPECT_EQ(report.unrecoverable, 0u);
  EXPECT_EQ(rpcs("repair") - repairs0, 0u) << "local attempt that cannot succeed";
  EXPECT_EQ(rpcs("read") - reads0, verify_reads + kLrc.k)
      << "repair fetched beyond the k survivors";
  std::vector<std::byte> out;
  EXPECT_EQ(c.coordinator().read_block(3, target, &out).code,
            OpResult::Code::kOk);
  EXPECT_EQ(out, data[target]);
}

TEST_F(ClusterTest, RemoveNodeRebuildsItsChunks) {
  // RS, and the benchmark's LRC shape. A rebuild reads fewer than k
  // chunks when local and k survivors when global; a move reads one.
  struct Input {
    LocalClusterConfig cfg;
    std::uint64_t stripes;
  };
  for (const Input& in :
       {Input{Cfg(6, 0, kRs), 6}, Input{Cfg(8, 4, kLrc8), 64}}) {
    const Geometry& g = in.cfg.geom;
    SCOPED_TRACE("local " + std::to_string(g.local));
    LocalCluster c(in.cfg);
    std::vector<std::vector<std::vector<std::byte>>> stripes;
    for (std::uint64_t s = 0; s < in.stripes; ++s) {
      stripes.push_back(MakeStripe(g, 100 + s));
      const auto ptrs = Ptrs(stripes.back());
      ASSERT_TRUE(
          c.coordinator()
              .write_stripe(s, std::span<const std::byte* const>(ptrs))
              .ok());
    }
    // Node at position 2 dies for good: placement drops it, rebalance
    // re-homes (reconstructing, since the old home is dead) every chunk
    // it held.
    const std::uint64_t reads0 =
        CounterValue("dialga_cluster_rpc_total", {{"type", "read"}});
    c.kill(2);
    const auto report = c.coordinator().remove_node(LocalCluster::id_of(2));
    const std::uint64_t reads =
        CounterValue("dialga_cluster_rpc_total", {{"type", "read"}}) - reads0;
    EXPECT_GT(report.moved + report.rebuilt, 0u);
    EXPECT_EQ(report.failed, 0u);
    // One kRead per move, at most k per rebuilt chunk.
    EXPECT_LE(reads, g.k * report.rebuilt + report.moved);
    for (std::uint64_t s = 0; s < in.stripes; ++s) {
      for (const auto node : c.placement().table(s, g)) {
        EXPECT_NE(node, LocalCluster::id_of(2));
      }
      for (std::uint32_t j = 0; j < g.k; ++j) {
        std::vector<std::byte> out;
        EXPECT_EQ(c.coordinator().read_block(s, j, &out).code,
                  OpResult::Code::kOk);
        EXPECT_EQ(out, stripes[s][j]);
      }
    }
  }
}

TEST_F(ClusterTest, AddNodeMovesChunksOntoIt) {
  LocalCluster cl(Cfg(5, 0, kRs));
  for (std::uint64_t s = 0; s < 8; ++s) {
    const auto data = MakeStripe(kRs, 200 + s);
    const auto ptrs = Ptrs(data);
    ASSERT_TRUE(
        cl.coordinator()
            .write_stripe(s, std::span<const std::byte* const>(ptrs))
            .ok());
  }
  // A 6th node joins. The harness only pre-builds cfg.nodes nodes, so
  // register the newcomer by hand the way a deployment would.
  cluster::NodeConfig nc;
  nc.id = 77;
  nc.domain = 77;
  cluster::Node newcomer(nc, &cl.transport());
  const auto report = cl.coordinator().add_node({77, 77});
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(newcomer.chunk_count(), 0u);  // it must take some load
  for (std::uint64_t s = 0; s < 8; ++s) {
    const auto data = MakeStripe(kRs, 200 + s);
    for (std::uint32_t j = 0; j < kRs.k; ++j) {
      std::vector<std::byte> out;
      EXPECT_EQ(cl.coordinator().read_block(s, j, &out).code,
                OpResult::Code::kOk);
      EXPECT_EQ(out, data[j]);
    }
  }
}

TEST_F(ClusterTest, HeartbeatTracksUpAndDown) {
  LocalCluster c(Cfg(4, 0, kRs));
  auto hb = c.coordinator().heartbeat();
  EXPECT_EQ(hb.up.size(), 4u);
  EXPECT_TRUE(hb.down.empty());
  c.kill(1);
  hb = c.coordinator().heartbeat();
  EXPECT_EQ(hb.up.size(), 3u);
  ASSERT_EQ(hb.down.size(), 1u);
  EXPECT_EQ(hb.down[0], LocalCluster::id_of(1));
  c.revive(1);
  hb = c.coordinator().heartbeat();
  EXPECT_EQ(hb.up.size(), 4u);
}

TEST_F(ClusterTest, NodePersistenceSurvivesRestart) {
  const fs::path root =
      fs::temp_directory_path() / "dialga_cluster_persist_test";
  fs::remove_all(root);
  fs::create_directories(root);
  const auto data = MakeStripe(kRs, 55);
  {
    LocalCluster c(Cfg(4, 0, kRs, root));
    const auto ptrs = Ptrs(data);
    ASSERT_TRUE(
        c.coordinator()
            .write_stripe(0, std::span<const std::byte* const>(ptrs))
            .ok());
  }
  {
    // Fresh process image: same directories, new nodes.
    LocalCluster c(Cfg(4, 0, kRs, root));
    c.coordinator().track(0);
    for (std::uint32_t j = 0; j < kRs.k; ++j) {
      std::vector<std::byte> out;
      EXPECT_EQ(c.coordinator().read_block(0, j, &out).code,
                OpResult::Code::kOk);
      EXPECT_EQ(out, data[j]);
    }
  }
  fs::remove_all(root);
}

TEST_F(ClusterTest, PerNodeFaultSitesHitOnlyTheirNode) {
  LocalCluster c(Cfg(4, 0, kRs));
  // 100% recv failure on node 2 only: RPCs to it fail, others fine.
  ASSERT_TRUE(fault::Injector::Global().install_spec(
      "n2.cluster.recv:p=1.0,err=EIO"));
  cluster::Frame req;
  req.type = cluster::MsgType::kHeartbeat;
  cluster::Frame resp;
  EXPECT_EQ(c.transport().call(cluster::kClientId, 2, req, &resp), EIO);
  EXPECT_EQ(c.transport().call(cluster::kClientId, 1, req, &resp), 0);
  EXPECT_EQ(c.transport().call(cluster::kClientId, 3, req, &resp), 0);
  fault::Injector::Global().clear();
  // The plain site hits every node.
  ASSERT_TRUE(fault::Injector::Global().install_spec(
      "cluster.send:p=1.0,err=ETIMEDOUT"));
  EXPECT_EQ(c.transport().call(cluster::kClientId, 1, req, &resp),
            ETIMEDOUT);
  EXPECT_EQ(c.transport().call(cluster::kClientId, 3, req, &resp),
            ETIMEDOUT);
}

TEST_F(ClusterTest, TokenBucketEnforcesRateInVirtualTime) {
  std::uint64_t now = 0;
  TokenBucket bucket(1000.0, 500.0, common::Clock::Manual(&now));
  // Drain far past the burst; every grant beyond it must advance the
  // virtual clock enough that granted <= rate * elapsed + burst.
  for (int i = 0; i < 100; ++i) bucket.throttle(100);
  const double elapsed_s = static_cast<double>(now) / 1e9;
  EXPECT_LE(static_cast<double>(bucket.granted()),
            1000.0 * elapsed_s + 500.0 + 1e-6);
  EXPECT_GT(bucket.waits(), 0u);
  EXPECT_EQ(bucket.granted(), 100u * 100u);
}

TEST_F(ClusterTest, TokenBucketOversizedRequestBorrowsWithoutDeadlock) {
  std::uint64_t now = 0;
  TokenBucket bucket(1000.0, 64.0, common::Clock::Manual(&now));
  bucket.throttle(1000);  // 15x the burst: must return, not spin
  EXPECT_EQ(bucket.granted(), 1000u);
}

TEST_F(ClusterTest, UnlimitedBucketNeverWaits) {
  TokenBucket bucket(0.0, 0.0);
  EXPECT_TRUE(bucket.unlimited());
  EXPECT_EQ(bucket.throttle(1 << 20), 0u);
  EXPECT_EQ(bucket.waits(), 0u);
}

TEST_F(ClusterTest, ManifestRoundTrip) {
  ClusterManifest m;
  m.nodes = 6;
  m.domains = 3;
  m.geom = kLrc;
  m.stripes = {0, 1, 5, 42};
  ClusterManifest out;
  ASSERT_TRUE(ClusterManifest::parse(m.serialize(), &out));
  EXPECT_EQ(out.nodes, m.nodes);
  EXPECT_EQ(out.domains, m.domains);
  EXPECT_EQ(out.geom, m.geom);
  EXPECT_EQ(out.stripes, m.stripes);
}

TEST_F(ClusterTest, ManifestVersionOneOpensRsButRefusesLrc) {
  // Version 2 marks the LRC placement that spills groups; RS tables are
  // the same under both versions.
  auto as_v1 = [](std::string text) {
    EXPECT_EQ(text.rfind("version 2\n", 0), 0u);
    return text.replace(0, 9, "version 1");
  };
  ClusterManifest m;
  m.nodes = 8;
  m.domains = 4;
  m.geom = kRs;
  m.stripes = {0, 3};
  ClusterManifest out;
  std::string why;
  ASSERT_TRUE(ClusterManifest::parse(as_v1(m.serialize()), &out, &why));
  EXPECT_EQ(out.geom, kRs);
  EXPECT_EQ(out.stripes, m.stripes);
  EXPECT_TRUE(why.empty());

  m.geom = kLrc;
  EXPECT_TRUE(ClusterManifest::parse(m.serialize(), &out));
  EXPECT_FALSE(ClusterManifest::parse(as_v1(m.serialize()), &out, &why));
  EXPECT_NE(why.find("placement"), std::string::npos) << why;
}

TEST_F(ClusterTest, ManifestRejectsGarbage) {
  ClusterManifest out;
  EXPECT_FALSE(ClusterManifest::parse("", &out));
  EXPECT_FALSE(ClusterManifest::parse("version 3\nnodes 4\n", &out));
  EXPECT_FALSE(ClusterManifest::parse("version 1\nnodes zero\n", &out));
  EXPECT_FALSE(ClusterManifest::parse("version 1\nnodes 0\n", &out));
  // Unknown keys are forward-compatible, not fatal.
  ClusterManifest m;
  m.nodes = 4;
  m.geom = kRs;
  EXPECT_TRUE(
      ClusterManifest::parse(m.serialize() + "future_key 9\n", &out));
}

}  // namespace
