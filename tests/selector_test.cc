// Learned strategy selection (src/dialga/selector.*): online update
// convergence on synthetic rewards, the confidence-margin fallback
// trigger, plan-cache round-trip including corrupt-file rejection, and
// the coordinator-level replay/warm-start contracts of ROADMAP item 1.
#include "dialga/selector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/env.h"
#include "dialga/coordinator.h"
#include "integrity/checksum.h"
#include "simmem/address_space.h"
#include "simmem/memory_system.h"

namespace dialga {
namespace {

WindowFeatures SampleFeatures() {
  WindowFeatures f;
  f.k = 12;
  f.m = 4;
  f.block_size = 1024;
  f.nthreads = 4;
  f.latency_ratio = 1.2;
  f.useless_ratio = 2.0;
  f.contention = true;
  f.inefficient = false;
  f.service_load = 0.5;
  return f;
}

/// The CI selector job fans the replay tests out over a seed matrix
/// via DIALGA_SELECTOR_SEED; any seed must replay bit-identically.
std::uint64_t MatrixSeed(std::uint64_t fallback) {
  return common::EnvUint64("DIALGA_SELECTOR_SEED", fallback, 0,
                           std::numeric_limits<std::uint64_t>::max());
}

std::string TempPath(const char* stem) {
  return (std::filesystem::temp_directory_path() /
          (std::string("dialga_selector_test_") + stem))
      .string();
}

// --- Features ---------------------------------------------------------

TEST(WindowFeatures, VectorIsNormalizedWithBias) {
  const auto x = SampleFeatures().vec();
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  for (const double v : x) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(WindowFeatures, ShapeKeyIgnoresTransientPressure) {
  WindowFeatures a = SampleFeatures();
  WindowFeatures b = a;
  b.latency_ratio = 3.9;
  b.useless_ratio = 7.0;
  b.contention = !a.contention;
  b.inefficient = !a.inefficient;
  b.service_load = 0.9;
  // The cache key answers "what did this workload SHAPE converge to";
  // pressure transients right after a phase shift must still hit.
  EXPECT_EQ(a.shape_key(), b.shape_key());

  b.nthreads = a.nthreads + 1;
  EXPECT_NE(a.shape_key(), b.shape_key());
  b = a;
  b.k = a.k + 1;
  EXPECT_NE(a.shape_key(), b.shape_key());
  b = a;
  b.block_size = a.block_size * 2;
  EXPECT_NE(a.shape_key(), b.shape_key());
}

// --- Strategy::from_key round-trip ------------------------------------

TEST(Strategy, KeyRoundTrips) {
  Strategy s;
  s.hw_prefetch = false;
  s.sw_distance = 48;
  s.xpline_first_distance = 52;
  s.widen_to_xpline = true;
  s.sw_tail_offset = 8192;
  EXPECT_EQ(Strategy::from_key(s.key()), s);
  EXPECT_EQ(Strategy::from_key(Strategy{}.key()), Strategy{});
}

// --- Online learning --------------------------------------------------

TEST(StrategySelector, OnlineUpdatesConvergeOnSyntheticRewards) {
  SelectorOptions opts;
  opts.enabled = true;
  opts.min_updates = 1;
  opts.confidence_margin = 0.01;
  StrategySelector sel(opts);

  const WindowFeatures f = SampleFeatures();
  const int good = sel.nearest_candidate(false, 32);
  ASSERT_GE(good, 0);
  // Teach the model: candidate `good` pays +1, everything else -0.5.
  for (int round = 0; round < 40; ++round) {
    for (std::size_t c = 0; c < sel.candidates().size(); ++c) {
      sel.train(f, static_cast<int>(c),
                static_cast<int>(c) == good ? 1.0 : -0.5);
    }
  }
  const SelectorDecision d = sel.decide(f);
  EXPECT_TRUE(d.valid);
  EXPECT_FALSE(d.fallback);
  EXPECT_EQ(d.candidate, good);
  EXPECT_FALSE(d.hw_prefetch);
  EXPECT_EQ(d.sw_distance, 32u);
  EXPECT_GT(d.confidence, opts.confidence_margin);
}

TEST(StrategySelector, ColdModelFallsBackUntilMinUpdates) {
  SelectorOptions opts;
  opts.enabled = true;
  opts.min_updates = 8;
  StrategySelector sel(opts);

  const WindowFeatures f = SampleFeatures();
  // A never-seen feature region (zero updates) must defer to the
  // explorer regardless of margins.
  SelectorDecision d = sel.decide(f);
  EXPECT_TRUE(d.valid);
  EXPECT_TRUE(d.fallback);
  EXPECT_EQ(sel.stats().fallbacks, 1u);

  for (std::uint64_t i = 0; i < opts.min_updates; ++i) sel.train(f, 0, 1.0);
  d = sel.decide(f);
  EXPECT_FALSE(d.fallback) << "trained model with clear margin must predict";
}

TEST(StrategySelector, LowConfidenceMarginTriggersFallback) {
  SelectorOptions opts;
  opts.enabled = true;
  opts.min_updates = 1;
  opts.confidence_margin = 0.5;
  StrategySelector sel(opts);

  const WindowFeatures f = SampleFeatures();
  // Two candidates trained to nearly identical value: margin ~0, well
  // under the 0.5 threshold.
  for (int round = 0; round < 50; ++round) {
    sel.train(f, 0, 0.80);
    sel.train(f, 1, 0.79);
  }
  const SelectorDecision d = sel.decide(f);
  EXPECT_TRUE(d.valid);
  EXPECT_TRUE(d.fallback) << "margin " << sel.stats().last_confidence
                          << " should not clear 0.5";
  EXPECT_LT(sel.stats().last_confidence, 0.5);
  EXPECT_GE(sel.stats().fallbacks, 1u);
}

TEST(StrategySelector, CreditTrainsThePendingEpisode) {
  SelectorOptions opts;
  opts.enabled = true;
  opts.min_updates = 1000;  // stay in fallback; we only exercise credit()
  StrategySelector sel(opts);

  const WindowFeatures f = SampleFeatures();
  Strategy applied;
  applied.hw_prefetch = false;
  applied.sw_distance = 16;

  ASSERT_TRUE(sel.decide(f).fallback);
  sel.note_applied(applied);
  sel.credit(10.0);  // first window defines the shape peak -> reward +1
  EXPECT_EQ(sel.stats().updates, 1u);
  const int cand = sel.nearest_candidate(false, 16);
  EXPECT_GT(sel.score(f, cand), 0.0)
      << "peak window must push the applied candidate's value up";
}

TEST(StrategySelector, DecisionsAreSeedReplayable) {
  // Same seed + same feature/reward sequence => bit-identical decision
  // stream, even with epsilon-greedy exploration enabled.
  const auto run = [] {
    SelectorOptions opts;
    opts.enabled = true;
    opts.min_updates = 1;
    opts.confidence_margin = 0.0;
    opts.explore_epsilon = 0.3;
    opts.seed = MatrixSeed(42);
    StrategySelector sel(opts);
    const WindowFeatures f = SampleFeatures();
    for (int i = 0; i < 8; ++i) {
      sel.train(f, i % 4, i % 2 == 0 ? 0.5 : -0.5);
    }
    std::vector<int> picks;
    for (int i = 0; i < 32; ++i) {
      const SelectorDecision d = sel.decide(f);
      picks.push_back(d.candidate);
      sel.note_applied(Strategy{});
      sel.credit(1.0 + 0.01 * i);
    }
    return picks;
  };
  EXPECT_EQ(run(), run());
}

// --- Plan cache -------------------------------------------------------

TEST(PlanCache, RoundTripsThroughFile) {
  const std::string path = TempPath("roundtrip");
  std::remove(path.c_str());

  PlanCache cache;
  Strategy s;
  s.hw_prefetch = false;
  s.sw_distance = 64;
  cache.insert(0x1234, {s.key(), 0.75});
  cache.insert(0x5678, {Strategy{}.key(), -0.25});
  ASSERT_TRUE(cache.dirty());
  ASSERT_TRUE(cache.flush(path));
  EXPECT_FALSE(cache.dirty());

  PlanCache loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.size(), 2u);
  const PlanCache::Entry* e = loaded.lookup(0x1234);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->strategy_key, s.key());
  EXPECT_DOUBLE_EQ(e->reward, 0.75);
  EXPECT_EQ(loaded.lookup(0x9999), nullptr);
  std::remove(path.c_str());
}

TEST(PlanCache, SerializationIsCanonical) {
  // Insertion order must not leak into the bytes (entries sort by key),
  // so identical contents always produce identical files.
  PlanCache a, b;
  a.insert(1, {10, 0.0});
  a.insert(2, {20, 0.0});
  b.insert(2, {20, 0.0});
  b.insert(1, {10, 0.0});
  EXPECT_EQ(a.serialize(), b.serialize());
}

TEST(PlanCache, CorruptFileIsRejectedAndIgnored) {
  const std::string path = TempPath("corrupt");
  PlanCache cache;
  cache.insert(0xAB, {Strategy{}.key(), 1.0});
  ASSERT_TRUE(cache.flush(path));

  // Flip one byte in the middle: the CRC-32C trailer must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(18);
    char c;
    f.seekg(18);
    f.get(c);
    f.seekp(18);
    f.put(static_cast<char>(c ^ 0x40));
  }
  PlanCache corrupt;
  EXPECT_FALSE(corrupt.load(path));
  EXPECT_EQ(corrupt.size(), 0u) << "corrupt cache must load empty";

  // Truncated file.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write("DPLC", 4);
  }
  EXPECT_FALSE(corrupt.load(path));
  EXPECT_EQ(corrupt.size(), 0u);

  // Version skew: valid CRC, wrong version.
  {
    PlanCache v;
    v.insert(0xCD, {Strategy{}.key(), 0.5});
    auto bytes = v.serialize();
    bytes[4] ^= 0x01;  // bump version field...
    // ...and re-seal the checksum so only the version mismatches.
    const std::size_t body = bytes.size() - 4;
    const std::uint32_t crc = integrity::Crc32c(bytes.data(), body);
    for (int i = 0; i < 4; ++i) {
      bytes[body + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    }
    PlanCache skewed;
    EXPECT_FALSE(skewed.deserialize(bytes));
  }
  std::remove(path.c_str());
}

TEST(StrategySelector, WarmCacheSkipsExplorationEntirely) {
  const std::string path = TempPath("warm");
  std::remove(path.c_str());
  const WindowFeatures f = SampleFeatures();
  Strategy converged;
  converged.hw_prefetch = false;
  converged.sw_distance = 48;

  {
    SelectorOptions opts;
    opts.enabled = true;
    opts.plan_cache_path = path;
    StrategySelector sel(opts);
    sel.commit(f, converged);
    // Destructor is the graceful-shutdown flush.
  }

  SelectorOptions warm;
  warm.enabled = true;
  warm.plan_cache_path = path;
  StrategySelector sel(warm);
  for (int i = 0; i < 16; ++i) {
    const SelectorDecision d = sel.decide(f);
    EXPECT_TRUE(d.from_cache);
    EXPECT_FALSE(d.fallback);
    EXPECT_EQ(Strategy::from_key(d.cached.key()), converged);
    sel.note_applied(d.cached);
    sel.credit(5.0);
  }
  EXPECT_EQ(sel.stats().fallbacks, 0u)
      << "a populated plan cache must skip exploration entirely";
  std::remove(path.c_str());
}

TEST(StrategySelector, PeriodicFlushFollowsInjectedClock) {
  const std::string path = TempPath("periodic");
  std::remove(path.c_str());
  std::uint64_t now = 0;

  SelectorOptions opts;
  opts.enabled = true;
  opts.plan_cache_path = path;
  opts.time = common::Clock::Manual(&now);
  StrategySelector sel(opts);

  sel.commit(SampleFeatures(), Strategy{});
  sel.maybe_flush();
  EXPECT_EQ(sel.stats().flushes, 0u) << "period not yet elapsed";
  now += 31'000'000'000ull;  // past the 30 s flush period
  sel.maybe_flush();
  EXPECT_EQ(sel.stats().flushes, 1u);
  EXPECT_TRUE(std::filesystem::exists(path));
  std::remove(path.c_str());
}

TEST(StrategySelector, NoLearnFreezesModelAndCache) {
  const std::string path = TempPath("frozen");
  std::remove(path.c_str());
  SelectorOptions opts;
  opts.enabled = true;
  opts.learn = false;
  opts.plan_cache_path = path;
  opts.min_updates = 0;
  {
    StrategySelector sel(opts);
    const WindowFeatures f = SampleFeatures();
    sel.commit(f, Strategy{});  // no-op when frozen
    ASSERT_TRUE(sel.decide(f).fallback ||
                true);  // decide still works; episode below
    sel.note_applied(Strategy{});
    sel.credit(7.0);
    EXPECT_EQ(sel.stats().updates, 0u);
    EXPECT_EQ(sel.plan_cache().size(), 0u);
  }
  EXPECT_FALSE(std::filesystem::exists(path))
      << "a frozen selector must never write the cache";
}

// --- Env hardening (satellite: registry Env* helpers) ------------------

TEST(SelectorOptions, FromEnvParsesAndHardens) {
  setenv("DIALGA_PLAN_CACHE", "/tmp/dialga_env_cache", 1);
  const SelectorOptions opts = SelectorOptions::FromEnv();
  EXPECT_TRUE(opts.enabled);
  EXPECT_EQ(opts.plan_cache_path, "/tmp/dialga_env_cache");

  // Flag hardening: garbage keeps the default, off disables.
  setenv("DIALGA_SELECTOR", "maybe", 1);
  EXPECT_TRUE(SelectorOptions::FromEnv().enabled);
  setenv("DIALGA_SELECTOR", "off", 1);
  EXPECT_FALSE(SelectorOptions::FromEnv().enabled);

  unsetenv("DIALGA_PLAN_CACHE");
  unsetenv("DIALGA_SELECTOR");
}

// --- Coordinator integration ------------------------------------------

constexpr std::size_t kBuffer = 96 * 1024;

simmem::SimConfig FastSampling() {
  simmem::SimConfig cfg;
  return cfg;
}

TEST(CoordinatorSelector, DefaultConstructionHasNoSelector) {
  const PatternInfo pattern{12, 4, 1024, 1};
  Coordinator c(pattern, Features::all(), Thresholds{}, kBuffer);
  EXPECT_EQ(c.selector(), nullptr);
}

TEST(CoordinatorSelector, DisabledOptionsMatchLegacyInitialStrategy) {
  const PatternInfo pattern{12, 4, 1024, 1};
  Coordinator legacy(pattern, Features::all(), Thresholds{}, kBuffer);
  Coordinator with_opts(pattern, Features::all(), Thresholds{}, kBuffer,
                        SelectorOptions{});
  EXPECT_EQ(legacy.initial_strategy(), with_opts.initial_strategy());
}

TEST(CoordinatorSelector, WarmCacheDecidesFirstStripe) {
  const std::string path = TempPath("coord_warm");
  std::remove(path.c_str());
  const PatternInfo pattern{12, 4, 1024, 1};

  Strategy converged;
  converged.hw_prefetch = false;
  converged.sw_distance = 96;
  {
    WindowFeatures f;
    f.k = pattern.k;
    f.m = pattern.m;
    f.block_size = pattern.block_size;
    f.nthreads = pattern.nthreads;
    SelectorOptions opts;
    opts.enabled = true;
    opts.plan_cache_path = path;
    StrategySelector sel(opts);
    sel.commit(f, converged);
  }

  SelectorOptions opts;
  opts.enabled = true;
  opts.plan_cache_path = path;
  opts.learn = false;
  Coordinator c(pattern, Features::all(), Thresholds{}, kBuffer, opts);
  ASSERT_NE(c.selector(), nullptr);
  // The cached plan must be in force before any sampling happens.
  EXPECT_EQ(c.initial_strategy(), converged);
  EXPECT_EQ(c.selector()->stats().fallbacks, 0u);
  std::remove(path.c_str());
}

TEST(CoordinatorSelector, WindowsAreReplayableFromSeedAndCache) {
  // Two coordinators with identical options, driven through an
  // identical window sequence, must record identical (strategy, source)
  // streams — the "decisions are bit-replayable from (seed, plan-cache
  // state)" acceptance criterion, minus the filesystem.
  const auto run = [] {
    const PatternInfo pattern{12, 4, 1024, 1};
    Thresholds thr;
    thr.sample_interval_ns = 1000.0;
    SelectorOptions opts;
    opts.enabled = true;
    opts.seed = MatrixSeed(9);
    opts.explore_epsilon = 0.25;  // make the seed participate
    opts.min_updates = 4;
    Coordinator c(pattern, Features::all(), thr, kBuffer, opts);
    c.set_record_windows(true);

    simmem::SimConfig cfg = FastSampling();
    simmem::MemorySystem mem(cfg, 1);
    for (int w = 0; w < 24; ++w) {
      for (int i = 0; i < 8; ++i) {
        mem.load(0, simmem::kPmBase + static_cast<std::size_t>(w * 8 + i) *
                                          simmem::kPageBytes);
      }
      mem.advance_to(0, 1500.0 + 1500.0 * w);
      c.strategy(mem);
    }
    std::vector<std::pair<std::uint64_t, int>> out;
    for (const WindowRecord& r : c.windows()) {
      out.emplace_back(r.strategy_key, static_cast<int>(r.source));
    }
    return out;
  };
  const auto a = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, run());
}

}  // namespace
}  // namespace dialga
