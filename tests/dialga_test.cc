#include "dialga/dialga.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <thread>

#include "bench_util/runner.h"
#include "ec/isal.h"
#include "obs/metrics.h"

namespace dialga {
namespace {

struct Blocks {
  std::vector<std::vector<std::byte>> storage;
  std::vector<const std::byte*> data_ptrs;
  std::vector<std::byte*> parity_ptrs;
  std::vector<std::byte*> all_ptrs;
};

Blocks MakeBlocks(std::size_t k, std::size_t m, std::size_t bs,
                  std::uint64_t seed) {
  Blocks b;
  std::mt19937_64 rng(seed);
  b.storage.resize(k + m, std::vector<std::byte>(bs));
  for (std::size_t i = 0; i < k; ++i)
    for (auto& byte : b.storage[i]) byte = static_cast<std::byte>(rng());
  for (std::size_t i = 0; i < k; ++i) b.data_ptrs.push_back(b.storage[i].data());
  for (std::size_t j = 0; j < m; ++j)
    b.parity_ptrs.push_back(b.storage[k + j].data());
  for (auto& s : b.storage) b.all_ptrs.push_back(s.data());
  return b;
}

TEST(DialgaCodec, FunctionallyIdenticalToIsal) {
  // DIALGA only reschedules prefetches; the bytes must be bit-identical
  // to stock ISA-L.
  const std::size_t k = 10, m = 4, bs = 1024;
  const DialgaCodec dialga(k, m);
  const ec::IsalCodec isal(k, m);
  Blocks a = MakeBlocks(k, m, bs, 13);
  Blocks b = MakeBlocks(k, m, bs, 13);
  dialga.encode(bs, a.data_ptrs, a.parity_ptrs);
  isal.encode(bs, b.data_ptrs, b.parity_ptrs);
  EXPECT_EQ(a.storage, b.storage);
}

TEST(DialgaCodec, DecodeRoundTrips) {
  const std::size_t k = 8, m = 3, bs = 512;
  const DialgaCodec dialga(k, m);
  Blocks b = MakeBlocks(k, m, bs, 14);
  dialga.encode(bs, b.data_ptrs, b.parity_ptrs);
  const auto golden = b.storage;
  const std::vector<std::size_t> erasures{1, 5, 9};
  for (const std::size_t e : erasures)
    std::fill(b.storage[e].begin(), b.storage[e].end(), std::byte{0});
  ASSERT_TRUE(dialga.decode(bs, b.all_ptrs, erasures));
  EXPECT_EQ(b.storage, golden);
}

TEST(DialgaCodec, StaticPlanContainsPrefetches) {
  const DialgaCodec dialga(12, 4);
  const simmem::ComputeCost cost{};
  const ec::EncodePlan plan = dialga.encode_plan(1024, cost);
  EXPECT_GT(plan.count(ec::PlanOp::Kind::kPrefetch), 0u);
  // Same load/store structure as ISA-L.
  EXPECT_EQ(plan.count(ec::PlanOp::Kind::kLoad), 12u * 16u);
  EXPECT_EQ(plan.count(ec::PlanOp::Kind::kStore), 4u * 16u);
}

TEST(DialgaProvider, CachesPlansPerStrategy) {
  const DialgaCodec dialga(12, 4);
  simmem::SimConfig cfg;
  auto provider = dialga.make_encode_provider({12, 4, 1024, 1}, cfg);
  simmem::MemorySystem mem(cfg, 1);
  const ec::EncodePlan& p1 = provider->next_plan(0, mem);
  const ec::EncodePlan& p2 = provider->next_plan(0, mem);
  EXPECT_EQ(&p1, &p2) << "same strategy must return the cached plan";
  EXPECT_EQ(provider->plans_built(), 1u);
}

TEST(DialgaProvider, AdaptsDuringTimedRun) {
  const DialgaCodec dialga(12, 4);
  simmem::SimConfig cfg;
  bench_util::WorkloadConfig wl;
  wl.k = 12;
  wl.m = 4;
  wl.block_size = 1024;
  wl.total_data_bytes = 8ull << 20;
  auto provider = dialga.make_encode_provider({12, 4, 1024, 1}, cfg);
  const auto r = bench_util::RunTimed(cfg, wl, *provider);
  EXPECT_GT(provider->coordinator().samples_taken(), 3u);
  EXPECT_GT(provider->plans_built(), 1u)
      << "hill climbing must have materialized several distances";
  EXPECT_GT(r.pmu.sw_prefetches_issued, 0u);
}

TEST(DialgaTimed, BeatsIsalOnSmallBlockPmEncode) {
  // The headline claim (Fig. 10): 1 KiB blocks on PM, narrow stripe.
  simmem::SimConfig cfg;
  bench_util::WorkloadConfig wl;
  wl.k = 12;
  wl.m = 4;
  wl.block_size = 1024;
  wl.total_data_bytes = 8ull << 20;

  const ec::IsalCodec isal(12, 4);
  const auto base = bench_util::RunEncode(cfg, wl, isal);

  const DialgaCodec dialga(12, 4);
  auto provider = dialga.make_encode_provider({12, 4, 1024, 1}, cfg);
  const auto ours = bench_util::RunTimed(cfg, wl, *provider);

  EXPECT_GT(ours.gbps, base.gbps * 1.3);
}

TEST(DialgaTimed, RescuesWideStripeCollapse) {
  // k > 32 kills the HW streamer (Observation 3); software prefetch
  // must recover most of the loss.
  simmem::SimConfig cfg;
  bench_util::WorkloadConfig wl;
  wl.k = 48;
  wl.m = 4;
  wl.block_size = 1024;
  wl.total_data_bytes = 8ull << 20;

  const ec::IsalCodec isal(48, 4);
  const auto base = bench_util::RunEncode(cfg, wl, isal);

  const DialgaCodec dialga(48, 4);
  auto provider = dialga.make_encode_provider({48, 4, 1024, 1}, cfg);
  const auto ours = bench_util::RunTimed(cfg, wl, *provider);

  EXPECT_GT(ours.gbps, base.gbps * 2.0);
}

TEST(DialgaTimed, HighConcurrencyUsesBufferFriendlyMode) {
  simmem::SimConfig cfg;
  const DialgaCodec dialga(28, 24);
  auto provider = dialga.make_encode_provider({28, 24, 1024, 16}, cfg);
  EXPECT_FALSE(provider->coordinator().initial_strategy().hw_prefetch);
  EXPECT_TRUE(provider->coordinator().initial_strategy().widen_to_xpline);

  bench_util::WorkloadConfig wl;
  wl.k = 28;
  wl.m = 24;
  wl.block_size = 1024;
  wl.threads = 16;
  wl.total_data_bytes = 16ull << 20;
  const auto ours = bench_util::RunTimed(cfg, wl, *provider);

  const ec::IsalCodec isal(28, 24);
  const auto base = bench_util::RunEncode(cfg, wl, isal);
  EXPECT_GT(ours.gbps, base.gbps);
  EXPECT_LT(ours.media_amplification(), base.media_amplification())
      << "BF mode must reduce PM media read amplification (Fig. 19)";
}

TEST(DialgaTimed, BreakdownFeaturesAreCumulative) {
  // Fig. 18: Vanilla <= +SW <= +SW+HW <= full (allowing small noise).
  simmem::SimConfig cfg;
  bench_util::WorkloadConfig wl;
  wl.k = 12;
  wl.m = 4;
  wl.block_size = 1024;
  wl.total_data_bytes = 8ull << 20;

  auto run = [&](Features f) {
    const DialgaCodec codec(12, 4, ec::SimdWidth::kAvx512, f);
    auto provider = codec.make_encode_provider({12, 4, 1024, 1}, cfg);
    return bench_util::RunTimed(cfg, wl, *provider).gbps;
  };
  const double vanilla = run(Features::vanilla());
  const double sw = run(Features::sw_only());
  const double sw_hw = run(Features::sw_hw());
  const double full = run(Features::all());
  EXPECT_GT(sw, vanilla);
  EXPECT_GT(sw_hw, sw * 0.95);
  EXPECT_GT(full, sw_hw * 0.95);
  EXPECT_GT(full, vanilla * 1.2);
}

std::string TempPath(const char* stem) {
  return (std::filesystem::temp_directory_path() /
          (std::string("dialga_test_") + stem))
      .string();
}

void ExpectSamePlan(const ec::EncodePlan& a, const ec::EncodePlan& b) {
  ASSERT_EQ(a.ops.size(), b.ops.size());
  EXPECT_EQ(a.num_slots(), b.num_slots());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    ASSERT_EQ(a.ops[i].kind, b.ops[i].kind) << "op " << i;
    ASSERT_EQ(a.ops[i].block, b.ops[i].block) << "op " << i;
    ASSERT_EQ(a.ops[i].offset, b.ops[i].offset) << "op " << i;
    ASSERT_EQ(a.ops[i].cycles, b.ops[i].cycles) << "op " << i;
  }
}

TEST(DialgaCodec, HostFaceNeverWritesThePlanCache) {
  // The host face never samples, so it has nothing to commit: only a
  // StrategySelector that explored may write the cache file.
  const std::string path = TempPath("host_never_writes");
  std::remove(path.c_str());
  {
    SelectorOptions opts;
    opts.enabled = true;
    opts.learn = true;
    opts.plan_cache_path = path;
    DialgaCodec dialga(8, 3);
    dialga.set_selector_options(opts);
    Blocks b = MakeBlocks(8, 3, 1000, 21);
    dialga.encode(1000, b.data_ptrs, b.parity_ptrs);
    const std::vector<std::size_t> erasures{2};
    ASSERT_TRUE(dialga.decode(1000, b.all_ptrs, erasures));
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(DialgaCodec, HostFaceReplaysCommittedPlanWithFeatureGates) {
  const std::string path = TempPath("host_replays");
  std::remove(path.c_str());
  Strategy converged;
  converged.hw_prefetch = false;
  converged.sw_distance = 96;
  {
    WindowFeatures f;
    f.k = 12;
    f.m = 4;
    f.block_size = 1024;
    f.nthreads = 1;
    SelectorOptions opts;
    opts.enabled = true;
    opts.plan_cache_path = path;
    StrategySelector sel(opts);
    sel.commit(f, converged);
  }
  ASSERT_TRUE(std::filesystem::exists(path));

  SelectorOptions opts;
  opts.enabled = true;
  opts.plan_cache_path = path;
  DialgaCodec full(12, 4);
  full.set_selector_options(opts);
  EXPECT_EQ(full.initial_strategy(1024), converged);

  // Without adaptive software prefetch the Coordinator builds no
  // selector, so the cached distance must not leak through.
  DialgaCodec gated(12, 4, ec::SimdWidth::kAvx512, Features::sw_hw());
  gated.set_selector_options(opts);
  const DialgaCodec plain(12, 4, ec::SimdWidth::kAvx512, Features::sw_hw());
  EXPECT_EQ(gated.initial_strategy(1024), plain.initial_strategy(1024));
  EXPECT_NE(gated.initial_strategy(1024), converged);

  // The static plans take the same strategy as the host face.
  const simmem::ComputeCost cost{};
  ExpectSamePlan(full.encode_plan(1024, cost),
                 full.inner().encode_plan_with(
                     1024, cost, full.initial_strategy(1024).to_plan_options()));
  const std::vector<std::size_t> erasures{1, 13};
  ExpectSamePlan(full.decode_plan(1024, cost, erasures),
                 full.inner().decode_plan_with(
                     1024, cost, erasures,
                     full.initial_strategy(1024).to_plan_options()));
  std::remove(path.c_str());
}

TEST(DialgaCodec, HostFaceBuildsOneCoordinatorPerBlockSize) {
  const DialgaCodec dialga(8, 3);
  Blocks b = MakeBlocks(8, 3, 1000, 22);
  const obs::Counter& flips = obs::Registry::Global().counter(
      "dialga_coord_strategy_flips_total");
  const std::uint64_t before = flips.value();
  for (int i = 0; i < 64; ++i) dialga.encode(1000, b.data_ptrs, b.parity_ptrs);
  EXPECT_LE(flips.value() - before, 1u);
}

TEST(DialgaCodec, ConcurrentHostEncodesMatchIsal) {
  // Service workers share one codec, so the per-block-size memo is
  // built and read concurrently.
  const std::size_t k = 8, m = 3;
  DialgaCodec dialga(k, m);
  SelectorOptions opts;
  opts.enabled = true;
  dialga.set_selector_options(opts);
  const ec::IsalCodec isal(k, m);
  const std::size_t sizes[] = {1000, 4096};

  std::vector<Blocks> got;
  std::vector<Blocks> want;
  for (int t = 0; t < 4; ++t) {
    for (const std::size_t bs : sizes) {
      got.push_back(MakeBlocks(k, m, bs, 30 + t));
      want.push_back(MakeBlocks(k, m, bs, 30 + t));
    }
  }
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 8; ++rep) {
        for (std::size_t j = 0; j < 2; ++j) {
          Blocks& b = got[t * 2 + j];
          dialga.encode(sizes[j], b.data_ptrs, b.parity_ptrs);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t i = 0; i < want.size(); ++i) {
    isal.encode(sizes[i % 2], want[i].data_ptrs, want[i].parity_ptrs);
    EXPECT_EQ(got[i].storage, want[i].storage) << "stripe " << i;
  }
}

TEST(DialgaCodec, NameAndAccessors) {
  const DialgaCodec d(12, 4);
  EXPECT_EQ(d.name(), "DIALGA");
  EXPECT_EQ(d.params().k, 12u);
  EXPECT_TRUE(d.features().buffer_friendly);
  EXPECT_EQ(d.inner().name(), "ISA-L");
}

}  // namespace
}  // namespace dialga
