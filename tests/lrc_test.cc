#include "ec/lrc.h"

#include <gtest/gtest.h>

#include <random>

#include "ec/isal.h"
#include "gf/gf_simd.h"
#include "gf/matrix.h"
#include "reconstruct_check.h"

namespace ec {
namespace {

struct Blocks {
  std::vector<std::vector<std::byte>> storage;
  std::vector<const std::byte*> data_ptrs;
  std::vector<std::byte*> parity_ptrs;
  std::vector<std::byte*> all_ptrs;
};

Blocks MakeBlocks(std::size_t k, std::size_t parities, std::size_t bs,
                  std::uint64_t seed) {
  Blocks b;
  std::mt19937_64 rng(seed);
  b.storage.resize(k + parities, std::vector<std::byte>(bs));
  for (std::size_t i = 0; i < k; ++i)
    for (auto& byte : b.storage[i]) byte = static_cast<std::byte>(rng());
  for (std::size_t i = 0; i < k; ++i) b.data_ptrs.push_back(b.storage[i].data());
  for (std::size_t j = 0; j < parities; ++j)
    b.parity_ptrs.push_back(b.storage[k + j].data());
  for (auto& s : b.storage) b.all_ptrs.push_back(s.data());
  return b;
}

TEST(Lrc, GlobalParitiesMatchPlainRs) {
  const std::size_t k = 8, m = 2, l = 2, bs = 512;
  const LrcCodec lrc(k, m, l);
  const IsalCodec rs(k, m);
  Blocks a = MakeBlocks(k, m + l, bs, 3);
  Blocks b = MakeBlocks(k, m, bs, 3);
  lrc.encode(bs, a.data_ptrs, a.parity_ptrs);
  rs.encode(bs, b.data_ptrs, b.parity_ptrs);
  for (std::size_t j = 0; j < m; ++j) {
    EXPECT_EQ(a.storage[k + j], b.storage[k + j]) << "global parity " << j;
  }
}

TEST(Lrc, LocalParityIsGroupXor) {
  const std::size_t k = 6, m = 2, l = 2, bs = 256;
  const LrcCodec lrc(k, m, l);
  Blocks b = MakeBlocks(k, m + l, bs, 4);
  lrc.encode(bs, b.data_ptrs, b.parity_ptrs);
  ASSERT_EQ(lrc.group_size(), 3u);
  for (std::size_t grp = 0; grp < l; ++grp) {
    for (std::size_t o = 0; o < bs; ++o) {
      std::byte expect{0};
      for (std::size_t j = grp * 3; j < (grp + 1) * 3; ++j)
        expect ^= b.storage[j][o];
      ASSERT_EQ(b.storage[k + m + grp][o], expect) << "group " << grp;
    }
  }
}

TEST(Lrc, LocallyRepairableClassification) {
  const LrcCodec lrc(8, 2, 2);
  EXPECT_TRUE(lrc.locally_repairable(std::vector<std::size_t>{1}));
  EXPECT_TRUE(lrc.locally_repairable(std::vector<std::size_t>{1, 6}));
  // Two erasures in the same group: needs global decode.
  EXPECT_FALSE(lrc.locally_repairable(std::vector<std::size_t>{1, 2}));
  // Parity erasures are never local repairs.
  EXPECT_FALSE(lrc.locally_repairable(std::vector<std::size_t>{8}));
  EXPECT_FALSE(lrc.locally_repairable(std::vector<std::size_t>{}));
}

TEST(Lrc, LocalRepairRecoversData) {
  const std::size_t k = 8, m = 2, l = 2, bs = 1024;
  const LrcCodec lrc(k, m, l);
  Blocks b = MakeBlocks(k, m + l, bs, 5);
  lrc.encode(bs, b.data_ptrs, b.parity_ptrs);
  const auto golden = b.storage;
  // One erasure per group: both repaired locally.
  const std::vector<std::size_t> erasures{2, 5};
  for (const std::size_t e : erasures)
    std::fill(b.storage[e].begin(), b.storage[e].end(), std::byte{0});
  ASSERT_TRUE(lrc.decode(bs, b.all_ptrs, erasures));
  EXPECT_EQ(b.storage, golden);
}

TEST(Lrc, GlobalDecodeHandlesGroupDoubleFault) {
  const std::size_t k = 8, m = 2, l = 2, bs = 512;
  const LrcCodec lrc(k, m, l);
  Blocks b = MakeBlocks(k, m + l, bs, 6);
  lrc.encode(bs, b.data_ptrs, b.parity_ptrs);
  const auto golden = b.storage;
  const std::vector<std::size_t> erasures{0, 1};  // same group
  for (const std::size_t e : erasures)
    std::fill(b.storage[e].begin(), b.storage[e].end(), std::byte{0});
  ASSERT_TRUE(lrc.decode(bs, b.all_ptrs, erasures));
  EXPECT_EQ(b.storage, golden);
}

TEST(Lrc, RecoversErasedParities) {
  const std::size_t k = 6, m = 2, l = 2, bs = 256;
  const LrcCodec lrc(k, m, l);
  Blocks b = MakeBlocks(k, m + l, bs, 7);
  lrc.encode(bs, b.data_ptrs, b.parity_ptrs);
  const auto golden = b.storage;
  const std::vector<std::size_t> erasures{k, k + m};  // one global, one local
  for (const std::size_t e : erasures)
    std::fill(b.storage[e].begin(), b.storage[e].end(), std::byte{0});
  ASSERT_TRUE(lrc.decode(bs, b.all_ptrs, erasures));
  EXPECT_EQ(b.storage, golden);
}

TEST(Lrc, MixedDataAndLocalParityBeyondLocalRepair) {
  const std::size_t k = 8, m = 2, l = 2, bs = 256;
  const LrcCodec lrc(k, m, l);
  Blocks b = MakeBlocks(k, m + l, bs, 8);
  lrc.encode(bs, b.data_ptrs, b.parity_ptrs);
  const auto golden = b.storage;
  // Data block 0 plus its own group's local parity: must fall back to
  // the global path.
  const std::vector<std::size_t> erasures{0, k + m + 0};
  for (const std::size_t e : erasures)
    std::fill(b.storage[e].begin(), b.storage[e].end(), std::byte{0});
  ASSERT_TRUE(lrc.decode(bs, b.all_ptrs, erasures));
  EXPECT_EQ(b.storage, golden);
}

TEST(Lrc, EncodePlanCoversAllParities) {
  const std::size_t k = 8, m = 2, l = 2, bs = 1024;
  const LrcCodec lrc(k, m, l);
  const simmem::ComputeCost cost{};
  const EncodePlan plan = lrc.encode_plan(bs, cost);
  EXPECT_EQ(plan.num_parity, m + l);
  EXPECT_EQ(plan.count(PlanOp::Kind::kStore), (m + l) * bs / 64);
  EXPECT_EQ(plan.count(PlanOp::Kind::kLoad), k * bs / 64);
}

TEST(Lrc, LocalRepairPlanReadsOnlyTheGroup) {
  const std::size_t k = 8, m = 2, l = 2, bs = 512;
  const LrcCodec lrc(k, m, l);
  const simmem::ComputeCost cost{};
  const std::vector<std::size_t> erasures{1};
  const EncodePlan plan = lrc.decode_plan(bs, cost, erasures);
  std::set<std::uint16_t> loads;
  for (const PlanOp& op : plan.ops)
    if (op.kind == PlanOp::Kind::kLoad) loads.insert(op.block);
  // Group of block 1 = blocks 0..3 plus local parity k+m.
  EXPECT_EQ(loads, std::set<std::uint16_t>({0, 2, 3, 10}));
  // Far fewer loads than a global decode.
  const EncodePlan global = lrc.decode_plan(bs, cost,
                                            std::vector<std::size_t>{0, 1});
  EXPECT_LT(plan.count(PlanOp::Kind::kLoad),
            global.count(PlanOp::Kind::kLoad));
}

/// The combined generator LRC(k, m, l) decodes over: identity, the
/// Cauchy global rows, then one 0/1 row per local group.
gf::Matrix LrcGenerator(std::size_t k, std::size_t m, std::size_t l) {
  const gf::Matrix rs = gf::cauchy_generator(k, m);
  gf::Matrix g(k + m + l, k);
  for (std::size_t r = 0; r < k + m; ++r)
    for (std::size_t c = 0; c < k; ++c) g.at(r, c) = rs.at(r, c);
  const std::size_t gsz = (k + l - 1) / l;
  for (std::size_t grp = 0; grp < l; ++grp)
    for (std::size_t c = grp * gsz; c < std::min((grp + 1) * gsz, k); ++c)
      g.at(k + m + grp, c) = 1;
  return g;
}

class LrcReconstructTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LrcReconstructTest, EveryTargetFromEveryKSubset) {
  // LRC is not MDS: a local parity beside its whole group is dependent,
  // so some of the 8 x C(7,4) survivor sets must be refused.
  const LrcCodec lrc(4, 2, 2);
  const ReconstructTally t =
      ReconstructEveryKSubset(lrc, LrcGenerator(4, 2, 2), GetParam(), 17);
  EXPECT_EQ(t.requests, 8u * 35u);
  EXPECT_GT(t.singular, 0u);
  EXPECT_LT(t.singular, t.requests / 2);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, LrcReconstructTest,
                         ::testing::Values(std::size_t{4096},
                                           std::size_t{1000}));

TEST(Lrc, IndependentAgreesWithTheGenerator) {
  // Every subset of the 8 blocks of LRC(4,2,2): independent() holds
  // exactly where the combined generator's rows have full row rank, so
  // for k rows exactly where reconstruct() accepts them.
  const LrcCodec lrc(4, 2, 2);
  const gf::Matrix gen = LrcGenerator(4, 2, 2);
  for (std::uint32_t mask = 0; mask < (1u << 8); ++mask) {
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < 8; ++i) {
      if (((mask >> i) & 1u) != 0) rows.push_back(i);
    }
    gf::Matrix sub(rows.size(), 4);
    for (std::size_t r = 0; r < rows.size(); ++r)
      for (std::size_t c = 0; c < 4; ++c) sub.at(r, c) = gen.at(rows[r], c);
    EXPECT_EQ(lrc.independent(rows), gf::rank(sub) == rows.size())
        << "mask " << mask;
  }
  using V = std::vector<std::size_t>;
  EXPECT_FALSE(lrc.independent(V{0, 1, 6}));  // L0 = d0 ^ d1
  EXPECT_TRUE(lrc.independent(V{0, 1, 2, 7}));
  EXPECT_TRUE(lrc.independent(V{2, 3, 4, 5}));
}

TEST(Lrc, ReconstructRejectsMalformedRequests) {
  const std::size_t k = 4, m = 2, l = 2, bs = 256;
  const LrcCodec lrc(k, m, l);
  Blocks b = MakeBlocks(k, m + l, bs, 18);
  lrc.encode(bs, b.data_ptrs, b.parity_ptrs);
  using V = std::vector<std::size_t>;
  // Target among the survivors, a duplicate, too few, out of range.
  EXPECT_FALSE(lrc.reconstruct(bs, b.all_ptrs, V{0, 1, 2, 3}, 3));
  EXPECT_FALSE(lrc.reconstruct(bs, b.all_ptrs, V{1, 1, 2, 3}, 0));
  EXPECT_FALSE(lrc.reconstruct(bs, b.all_ptrs, V{1, 2, 3}, 0));
  EXPECT_FALSE(lrc.reconstruct(bs, b.all_ptrs, V{1, 2, 3, 9}, 0));
  EXPECT_FALSE(lrc.reconstruct(bs, b.all_ptrs, V{1, 2, 3, 4}, 8));
}

TEST(Lrc, NameIncludesParameters) {
  const LrcCodec lrc(12, 2, 3);
  EXPECT_EQ(lrc.name(), "LRC(12,2,3)");
  EXPECT_EQ(lrc.params().m, 5u);
  EXPECT_EQ(lrc.global_parities(), 2u);
  EXPECT_EQ(lrc.local_parities(), 3u);
  EXPECT_EQ(lrc.group_of(0), 0u);
  EXPECT_EQ(lrc.group_of(11), 2u);
}

}  // namespace
}  // namespace ec
