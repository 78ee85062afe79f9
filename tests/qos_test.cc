// BandwidthGovernor behavior: the headroom gate that shields degraded
// reads from bulk, the watermark hysteresis that keeps bulk from
// wedging, the pressure clamp driven by DIALGA's contention signals
// (gauge, fault site, per-node reports) with its hold-window release,
// exact byte accounting under concurrency (run under TSan in CI), the
// cluster TokenBucket's rate-scale invariant, and a service-level
// rebuild-storm case proving a governed flood of bulk encodes never
// starves degraded reads.
//
// Time is injected everywhere (common::Clock::Manual in
// GovernorConfig::time and the token buckets), so the clamp's
// engage/hold/release cycle and the bucket's pacing are asserted in
// deterministic virtual time.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <iterator>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "chaos_seeds.h"
#include "cluster/token_bucket.h"
#include "ec/isal.h"
#include "fault/injector.h"
#include "obs/metrics.h"
#include "svc/governor.h"
#include "svc/stripe_service.h"

namespace svc {
namespace {

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * 1024;

/// Governor on a hand-cranked clock; pressure signals zeroed so tests
/// start from a known-quiet world regardless of suite order.
struct ManualGovernor {
  std::uint64_t now_ns = 1'000'000'000;  // nonzero: "until 0" is past
  BandwidthGovernor gov;

  explicit ManualGovernor(GovernorConfig cfg = {})
      : gov(WithClock(std::move(cfg), &now_ns)) {}

  static GovernorConfig WithClock(GovernorConfig cfg, std::uint64_t* t) {
    obs::Registry::Global().gauge("dialga_coord_contention").set(0.0);
    fault::Injector::Global().remove("qos.contention");
    cfg.time = common::Clock::Manual(t);
    return cfg;
  }
};

/// Push the EWMA well above ratio * floor: the floor creeps up only
/// floor_decay per sample, so a burst of slow samples opens the gap.
void DriveEwmaHigh(BandwidthGovernor& g, double slow_s = 1e-3) {
  for (int i = 0; i < 30; ++i) {
    g.observe_latency(TrafficClass::kDegradedRead, slow_s);
  }
}

/// Pull the EWMA back to the floor with fast samples.
void DriveEwmaLow(BandwidthGovernor& g, double fast_s = 100e-6) {
  for (int i = 0; i < 40; ++i) {
    g.observe_latency(TrafficClass::kDegradedRead, fast_s);
  }
}

TEST(Governor, LatencyClassesAlwaysAdmitAndDispatch) {
  GovernorConfig cfg;
  cfg.backstop_bytes = 1;  // would reject any throttled admission
  ManualGovernor m(cfg);

  EXPECT_TRUE(m.gov.try_admit(TrafficClass::kDegradedRead, 16 * kMiB));
  EXPECT_TRUE(m.gov.try_admit(TrafficClass::kInteractiveRead, 16 * kMiB));
  EXPECT_TRUE(m.gov.try_dispatch(TrafficClass::kDegradedRead, 16 * kMiB));
  EXPECT_TRUE(m.gov.try_dispatch(TrafficClass::kInteractiveRead, 16 * kMiB));

  const auto s = m.gov.snapshot();
  EXPECT_EQ(s.deferrals, 0u);
  EXPECT_EQ(s.rejected_backstop, 0u);
}

TEST(Governor, BackstopRejectsThrottledClassOverBudget) {
  GovernorConfig cfg;
  cfg.backstop_bytes = 1 * kMiB;
  ManualGovernor m(cfg);

  EXPECT_TRUE(m.gov.try_admit(TrafficClass::kBulkEncode, 1 * kMiB));
  EXPECT_FALSE(m.gov.try_admit(TrafficClass::kBulkEncode, 1))
      << "queued + in-flight past the backstop must reject";
  const auto s = m.gov.snapshot();
  EXPECT_EQ(s.rejected_backstop, 1u);
  // The rejected bytes were never accounted.
  EXPECT_EQ(s.queued_bytes[static_cast<std::size_t>(
                TrafficClass::kBulkEncode)],
            1 * kMiB);
}

TEST(Governor, OpportunisticDrainRequiresDegradedHeadroom) {
  GovernorConfig cfg;
  cfg.degraded_headroom_ratio = 1.5;
  ManualGovernor m(cfg);

  // A latency-sensitive request is outstanding, and its observed
  // latency has blown past ratio * floor: bulk must defer.
  ASSERT_TRUE(m.gov.try_admit(TrafficClass::kDegradedRead, 64 * kKiB));
  DriveEwmaLow(m.gov);   // establish the low-pressure floor
  DriveEwmaHigh(m.gov);  // then lose the headroom
  ASSERT_TRUE(m.gov.try_admit(TrafficClass::kBulkEncode, 64 * kKiB));
  EXPECT_FALSE(m.gov.try_dispatch(TrafficClass::kBulkEncode, 64 * kKiB));
  EXPECT_EQ(m.gov.snapshot().deferrals, 1u);

  // Latency recovers -> the same batch drains opportunistically.
  DriveEwmaLow(m.gov);
  EXPECT_TRUE(m.gov.try_dispatch(TrafficClass::kBulkEncode, 64 * kKiB));
  const auto s = m.gov.snapshot();
  EXPECT_EQ(s.opportunistic_drains, 1u);
  EXPECT_EQ(s.forced_drains, 0u);
}

TEST(Governor, NoLatencyTrafficOutstandingBypassesHeadroom) {
  ManualGovernor m;
  DriveEwmaLow(m.gov);
  DriveEwmaHigh(m.gov);  // EWMA terrible, but nobody is waiting
  ASSERT_TRUE(m.gov.try_admit(TrafficClass::kBulkEncode, 64 * kKiB));
  EXPECT_TRUE(m.gov.try_dispatch(TrafficClass::kBulkEncode, 64 * kKiB))
      << "with no latency-class bytes outstanding there is nobody to "
         "shield; bulk must not be held back";
}

TEST(Governor, WatermarkHysteresisForcesDrainUntilLow) {
  GovernorConfig cfg;
  cfg.high_watermark_bytes = 1 * kMiB;
  cfg.low_watermark_bytes = 256 * kKiB;
  cfg.bulk_inflight_cap = 64 * kKiB;
  ManualGovernor m(cfg);

  // No headroom and latency traffic outstanding: the opportunistic
  // path is closed, so every grant below must come from the forced
  // drain.
  ASSERT_TRUE(m.gov.try_admit(TrafficClass::kDegradedRead, 64 * kKiB));
  DriveEwmaLow(m.gov);
  DriveEwmaHigh(m.gov);

  const std::uint64_t chunk = 64 * kKiB;
  const std::uint64_t total = 2 * kMiB;
  ASSERT_TRUE(m.gov.try_admit(TrafficClass::kBulkEncode, total));

  // Backlog (2 MiB) >= high watermark: drain engages and stays on
  // until the backlog falls to the low watermark.
  std::uint64_t drained = 0;
  while (drained + chunk <= total - cfg.low_watermark_bytes) {
    ASSERT_TRUE(m.gov.try_dispatch(TrafficClass::kBulkEncode, chunk))
        << "forced drain must ignore the headroom gate and the "
           "in-flight cap (drained so far: "
        << drained << ")";
    drained += chunk;
  }
  auto s = m.gov.snapshot();
  EXPECT_EQ(s.high_crossings, 1u);
  EXPECT_TRUE(s.draining);
  EXPECT_EQ(s.forced_drains, drained / chunk);

  // Backlog now == low watermark: the next attempt disengages the
  // drain and falls back to the (closed) opportunistic path.
  EXPECT_FALSE(m.gov.try_dispatch(TrafficClass::kBulkEncode, chunk));
  s = m.gov.snapshot();
  EXPECT_EQ(s.low_crossings, 1u);
  EXPECT_FALSE(s.draining);
  EXPECT_EQ(s.deferrals, 1u);
}

TEST(Governor, OversizedBatchBorrowsOnlyWhenClassIdle) {
  GovernorConfig cfg;
  cfg.bulk_inflight_cap = 1 * kMiB;
  ManualGovernor m(cfg);

  ASSERT_TRUE(m.gov.try_admit(TrafficClass::kBulkEncode, 8 * kMiB));
  // Idle class: a 4 MiB batch borrows past the 1 MiB budget.
  EXPECT_TRUE(m.gov.try_dispatch(TrafficClass::kBulkEncode, 4 * kMiB));
  // Busy class: the next one waits for the borrow to retire.
  EXPECT_FALSE(m.gov.try_dispatch(TrafficClass::kBulkEncode, 4 * kMiB));
  m.gov.on_complete(TrafficClass::kBulkEncode, 4 * kMiB);
  EXPECT_TRUE(m.gov.try_dispatch(TrafficClass::kBulkEncode, 4 * kMiB));
}

TEST(Governor, ClampEngagesOnFaultSiteAndReleasesAfterHold) {
  GovernorConfig cfg;
  cfg.bulk_inflight_cap = 1 * kMiB;
  cfg.clamp_factor = 0.25;
  cfg.pressure_hold_ns = 50'000'000;
  ManualGovernor m(cfg);

  // Deterministic contention: the "qos.contention" site fires exactly
  // once (the first poll), standing in for the paper's PMU-derived
  // read-pressure bit.
  fault::SitePlan plan;
  plan.nth = {1};
  fault::ScopedPlan scoped("qos.contention", plan);

  EXPECT_FALSE(m.gov.pressure());
  m.gov.poll();
  EXPECT_TRUE(m.gov.pressure());
  EXPECT_DOUBLE_EQ(m.gov.rate_scale(), 0.25);
  EXPECT_EQ(m.gov.snapshot().clamp_engaged, 1u);

  // The scrub budget is clamped to 256 KiB while pressure holds:
  // 256 KiB in flight fills it, the next chunk defers.
  ASSERT_TRUE(m.gov.try_admit(TrafficClass::kScrub, 512 * kKiB));
  EXPECT_TRUE(m.gov.try_dispatch(TrafficClass::kScrub, 256 * kKiB));
  EXPECT_FALSE(m.gov.try_dispatch(TrafficClass::kScrub, 256 * kKiB))
      << "clamped scrub budget must defer what the unclamped budget "
         "would admit";

  // The hold window expires without a fresh signal: clamp releases
  // and the same chunk now fits the full 1 MiB budget.
  m.now_ns += cfg.pressure_hold_ns + 1;
  m.gov.poll();
  EXPECT_FALSE(m.gov.pressure());
  EXPECT_DOUBLE_EQ(m.gov.rate_scale(), 1.0);
  EXPECT_TRUE(m.gov.try_dispatch(TrafficClass::kScrub, 256 * kKiB));
}

TEST(Governor, CoordinatorContentionGaugeEngagesClamp) {
  GovernorConfig cfg;
  cfg.pressure_hold_ns = 10'000'000;
  ManualGovernor m(cfg);
  auto& gauge = obs::Registry::Global().gauge("dialga_coord_contention");

  gauge.set(1.0);
  m.gov.poll();
  EXPECT_TRUE(m.gov.pressure());

  // While the gauge stays up the hold window keeps refreshing.
  m.now_ns += cfg.pressure_hold_ns / 2;
  m.gov.poll();
  m.now_ns += cfg.pressure_hold_ns / 2;
  m.gov.poll();
  EXPECT_TRUE(m.gov.pressure());

  gauge.set(0.0);
  m.now_ns += cfg.pressure_hold_ns + 1;
  m.gov.poll();
  EXPECT_FALSE(m.gov.pressure());
}

TEST(Governor, ReportPressureAggregatesAcrossNodes) {
  ManualGovernor m;

  m.gov.report_pressure(/*source=*/1, true);
  EXPECT_TRUE(m.gov.pressure());
  m.gov.report_pressure(/*source=*/2, true);
  m.gov.report_pressure(/*source=*/1, false);
  EXPECT_TRUE(m.gov.pressure()) << "any contended node keeps the clamp";
  m.gov.report_pressure(/*source=*/2, false);
  EXPECT_FALSE(m.gov.pressure()) << "all nodes quiet releases it";
}

// Byte-conservation invariants under concurrent admit / dispatch /
// complete / drop from several threads — the CI tsan job runs this
// binary, so a data race in the governor fails there, and a lost or
// double-counted byte fails the exact equalities here.
TEST(Governor, ByteAccountingExactUnderConcurrency) {
  GovernorConfig cfg;
  cfg.backstop_bytes = 0;  // unlimited: no rejected bytes to model
  ManualGovernor m(cfg);
  BandwidthGovernor& g = m.gov;

  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  const TrafficClass classes[] = {
      TrafficClass::kInteractiveRead, TrafficClass::kDegradedRead,
      TrafficClass::kBulkEncode, TrafficClass::kScrub,
      TrafficClass::kRebuild};

  std::atomic<std::uint64_t> expect_admitted{0}, expect_dropped{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(1000 + t);
      for (int i = 0; i < kIters; ++i) {
        const TrafficClass cls = classes[rng() % std::size(classes)];
        const std::uint64_t bytes = 1 + rng() % (256 * kKiB);
        ASSERT_TRUE(g.try_admit(cls, bytes));
        expect_admitted.fetch_add(bytes, std::memory_order_relaxed);
        if (rng() % 8 == 0) {
          g.on_drop(cls, bytes);  // cancelled before dispatch
          expect_dropped.fetch_add(bytes, std::memory_order_relaxed);
          continue;
        }
        if (!g.try_dispatch(cls, bytes)) g.force_dispatch(cls, bytes);
        g.observe_latency(cls, 1e-4);
        g.on_complete(cls, bytes);
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto s = g.snapshot();
  std::uint64_t admitted = 0, dispatched = 0, completed = 0, dropped = 0;
  for (std::size_t i = 0; i < kTrafficClassCount; ++i) {
    EXPECT_EQ(s.queued_bytes[i], 0u) << to_string(classes[i]);
    EXPECT_EQ(s.inflight_bytes[i], 0u) << to_string(classes[i]);
    EXPECT_EQ(s.admitted_bytes[i],
              s.dispatched_bytes[i] + s.dropped_bytes[i])
        << to_string(classes[i]);
    EXPECT_EQ(s.dispatched_bytes[i], s.completed_bytes[i])
        << to_string(classes[i]);
    admitted += s.admitted_bytes[i];
    dispatched += s.dispatched_bytes[i];
    completed += s.completed_bytes[i];
    dropped += s.dropped_bytes[i];
  }
  EXPECT_EQ(admitted, expect_admitted.load());
  EXPECT_EQ(dropped, expect_dropped.load());
  EXPECT_EQ(completed, dispatched);
}

TEST(TokenBucket, RateScaleClampsToUnitInterval) {
  std::uint64_t t = 0;
  cluster::TokenBucket b(1000.0, 1000.0, common::Clock::Manual(&t));
  EXPECT_DOUBLE_EQ(b.rate_scale(), 1.0);
  b.set_rate_scale(4.0);
  EXPECT_DOUBLE_EQ(b.rate_scale(), 1.0) << "scale never exceeds 1: the "
                                           "configured rate is a ceiling";
  b.set_rate_scale(0.0);
  EXPECT_GT(b.rate_scale(), 0.0) << "scale 0 would wedge the bucket";
  b.set_rate_scale(0.25);
  EXPECT_DOUBLE_EQ(b.effective_rate(), 250.0);
}

TEST(TokenBucket, ScaledBucketPacesAtScaledRateInVirtualTime) {
  std::uint64_t t = 0;
  cluster::TokenBucket b(1'000'000.0, 1'000'000.0,
                         common::Clock::Manual(&t));
  b.throttle(1'000'000);  // drain the initial burst, no wait
  EXPECT_EQ(b.waits(), 0u);

  b.set_rate_scale(0.25);
  const std::uint64_t t0 = t;
  b.throttle(500'000);  // refills at 250 KB/s of virtual time
  EXPECT_GT(b.waits(), 0u);
  const double elapsed_s = static_cast<double>(t - t0) / 1e9;
  EXPECT_GE(elapsed_s, 0.5 / 0.25 * 0.9)
      << "500 KB at a 0.25-scaled 1 MB/s bucket is ~2 s of virtual time";
  EXPECT_EQ(b.granted(), 1'500'000u);
}

/// Delegating codec whose encode parks the worker briefly — long
/// enough for the dispatcher to run ahead and find the bulk class
/// busy, so the storm below exercises the defer/park/retry path
/// deterministically instead of depending on scheduler interleaving.
class SlowEncodeCodec : public ec::Codec {
 public:
  explicit SlowEncodeCodec(const ec::Codec& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  ec::CodeParams params() const override { return inner_.params(); }
  ec::SimdWidth simd() const override { return inner_.simd(); }
  void encode(std::size_t block_size,
              std::span<const std::byte* const> data,
              std::span<std::byte* const> parity) const override {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    inner_.encode(block_size, data, parity);
  }
  bool decode(std::size_t block_size, std::span<std::byte* const> blocks,
              std::span<const std::size_t> erasures) const override {
    return inner_.decode(block_size, blocks, erasures);
  }
  ec::EncodePlan encode_plan(std::size_t block_size,
                             const simmem::ComputeCost& cost) const override {
    return inner_.encode_plan(block_size, cost);
  }
  ec::EncodePlan decode_plan(
      std::size_t block_size, const simmem::ComputeCost& cost,
      std::span<const std::size_t> erasures) const override {
    return inner_.decode_plan(block_size, cost, erasures);
  }

 private:
  const ec::Codec& inner_;
};

// Service-level rebuild storm under seeded contention chaos: a
// governed flood of bulk-encode and rebuild traffic plus degraded
// reads, with the "qos.contention" fault site randomly flipping the
// DIALGA pressure bit mid-storm (engaging the scrub/rebuild clamp).
// Every degraded read must be served (none rejected, none starved
// into kDeadlineExceeded), every bulk future must resolve kOk, the
// governor's byte accounting must return to zero, and the storm must
// visibly have been shaped.
TEST(GovernedService, RebuildStormNeverStarvesDegradedReads) {
  for (const std::uint64_t seed : ChaosSeeds()) {
    fault::Injector::Global().clear();
    fault::Injector::Global().set_seed(seed);
    fault::SitePlan contention;
    contention.probability = 0.15;  // seeded: replays per seed
    fault::Injector::Global().install("qos.contention", contention);
    GovernorConfig gc;
    // Below one stripe's bytes ((k + m) * block = 96 KiB): every bulk
    // batch borrows alone, so a storm always defers — the shaping
    // assertion below cannot flake on a fast box.
    gc.bulk_inflight_cap = 64 * kKiB;
    gc.degraded_headroom_ratio = 2.5;
    gc.max_defer_ns = 20'000'000;
    BandwidthGovernor governor(gc);

    StripeService::Config cfg;
    cfg.queue_capacity = 4096;
    cfg.max_batch = 1;
    cfg.governor = &governor;
    cfg.latency_pool_threads = 1;
    StripeService service(cfg);

    const StripeShape sh{4, 2, 16 * 1024};
    const ec::IsalCodec codec(sh.k, sh.m);
    const SlowEncodeCodec slow(codec);  // bulk only; decodes stay fast
    constexpr std::size_t kBulk = 96;
    constexpr std::size_t kDeg = 24;

    // One buffer set per stripe, bulk first then degraded-read ones.
    std::vector<std::vector<std::vector<std::byte>>> stripes(kBulk + kDeg);
    std::mt19937_64 rng(seed);
    for (auto& blocks : stripes) {
      blocks.resize(sh.k + sh.m);
      for (std::size_t i = 0; i < sh.k + sh.m; ++i) {
        blocks[i].resize(sh.block_size);
        if (i < sh.k) {
          for (auto& x : blocks[i]) x = static_cast<std::byte>(rng());
        }
      }
    }
    auto encode_req = [&](std::size_t s) {
      EncodeRequest req;
      req.shape = sh;
      req.codec = &slow;
      for (std::size_t i = 0; i < sh.k; ++i) {
        req.data.push_back(stripes[s][i].data());
      }
      for (std::size_t j = 0; j < sh.m; ++j) {
        req.parity.push_back(stripes[s][sh.k + j].data());
      }
      return req;
    };

    // Pre-encode the degraded stripes serially so their parity is
    // valid, then blank block 0 to make each read a reconstruction.
    std::vector<std::vector<std::byte>> golden(kDeg);
    for (std::size_t d = 0; d < kDeg; ++d) {
      const std::size_t s = kBulk + d;
      auto req = encode_req(s);
      codec.encode(sh.block_size, req.data, req.parity);
      golden[d] = stripes[s][0];
      std::fill(stripes[s][0].begin(), stripes[s][0].end(), std::byte{0});
    }

    // The storm: every bulk/rebuild encode in flight before the first
    // degraded read is submitted. Odd stripes are tagged kRebuild so
    // the contention clamp has a class to squeeze.
    std::vector<std::future<Result>> bulk;
    bulk.reserve(kBulk);
    for (std::size_t s = 0; s < kBulk; ++s) {
      auto req = encode_req(s);
      if (s % 2 == 1) req.qos_class = TrafficClass::kRebuild;
      bulk.push_back(service.submit(std::move(req)));
    }
    std::vector<std::future<Result>> degraded;
    degraded.reserve(kDeg);
    for (std::size_t d = 0; d < kDeg; ++d) {
      const std::size_t s = kBulk + d;
      DecodeRequest req;
      req.shape = sh;
      req.codec = &codec;
      req.erasures = {0};
      for (std::size_t i = 0; i < sh.k + sh.m; ++i) {
        req.blocks.push_back(stripes[s][i].data());
      }
      degraded.push_back(service.submit(std::move(req)));
    }

    for (std::size_t d = 0; d < kDeg; ++d) {
      const Result r = degraded[d].get();
      ASSERT_EQ(r.status, StatusCode::kOk)
          << "seed " << seed << " degraded read " << d << ": "
          << to_string(r.status);
      EXPECT_EQ(stripes[kBulk + d][0], golden[d])
          << "seed " << seed << " reconstruction mismatch";
    }
    for (auto& f : bulk) EXPECT_EQ(f.get().status, StatusCode::kOk);
    service.shutdown();

    const auto gs = governor.snapshot();
    for (std::size_t i = 0; i < kTrafficClassCount; ++i) {
      EXPECT_EQ(gs.queued_bytes[i], 0u)
          << "seed " << seed << " class "
          << to_string(static_cast<TrafficClass>(i));
      EXPECT_EQ(gs.inflight_bytes[i], 0u)
          << "seed " << seed << " class "
          << to_string(static_cast<TrafficClass>(i));
    }
    // The storm must actually have been shaped, not waved through.
    EXPECT_GT(gs.deferrals + gs.forced_drains + gs.aged_drains, 0u)
        << "seed " << seed
        << " opportunistic=" << gs.opportunistic_drains;
    // At p = 0.15 per poll over hundreds of polls, a storm with no
    // clamp engagement is a broken pressure path, not bad luck.
    EXPECT_GE(gs.clamp_engaged, 1u) << "seed " << seed;

    fault::Injector::Global().clear();
  }
}

}  // namespace
}  // namespace svc
