// Online learned prefetch-strategy selection (ROADMAP item 1).
//
// The coordinator's threshold ladder + hill climb re-pays a full
// exploration penalty on every workload phase change: the climber
// probes a 16-candidate neighbourhood per round, one sampling window
// per probe, before the distance settles. Puppeteer (random-forest
// prefetcher manager) and the POWER7 runtime-guided reconfiguration
// work show a tiny online-learned predictor can replace the search in
// O(1) windows once it has seen the workload. This module is that
// predictor, sized for the 1 kHz sampling budget:
//
//  * WindowFeatures — one sampling window featurized: the workload
//    shape (k, m, block size, thread count), the PMU pressure deltas
//    (latency ratio vs. the low-pressure baseline, useless-prefetch
//    ratio, the contention/inefficiency gauges) and the service-side
//    load factor the stripe-service front-end forwards.
//  * StrategySelector — per-candidate linear (perceptron-style) value
//    predictors over the normalized feature vector. decide() scores a
//    fixed candidate grid (hw prefetcher on/off x software-prefetch
//    distance buckets) and predicts the best when the confidence
//    margin (best minus runner-up score) clears the threshold; below
//    it, or before the model has seen enough windows, it defers to the
//    hill-climb fallback explorer. Every window's observed reward —
//    throughput relative to the best window seen for the workload
//    shape — trains the candidate actually in force, so fallback
//    (explorer-driven) windows become labeled training samples.
//  * PlanCache — the persistent plan store keyed by quantized workload
//    shape: when the explorer converges (or the shape has accumulated
//    enough credited windows that its best-observed strategy is known),
//    the realized Strategy is committed; a warm process replays it on
//    the first window and never re-searches a known workload. Versioned + CRC-32C
//    checksummed file (DIALGA_PLAN_CACHE or ~/.dialga_plans); a
//    corrupt or version-skewed file is ignored and rebuilt.
//
// Determinism: decisions are pure functions of (options incl. seed,
// plan-cache state, the feature/reward sequence). The injected
// common::Clock only paces cache flushes, never decisions, so tests and
// the --phase-shift bench replay bit-identically.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "dialga/policy.h"

namespace dialga {

/// One sampling window, featurized for the selector.
struct WindowFeatures {
  // Workload shape (the coordinator's PatternInfo fields).
  std::size_t k = 0;
  std::size_t m = 0;
  std::size_t block_size = 0;
  std::size_t nthreads = 1;
  // PMU pressure deltas, relative to the coordinator's low-pressure
  // baselines (1.0 / 0.0 before the first valid sample).
  double latency_ratio = 1.0;
  double useless_ratio = 0.0;
  bool contention = false;
  bool inefficient = false;
  /// Service-side pressure in [0, 1]: the stripe-service front-end's
  /// admitted-but-uncompleted fraction of its queue capacity.
  double service_load = 0.0;

  friend bool operator==(const WindowFeatures&,
                         const WindowFeatures&) = default;

  /// Normalized feature vector (leading bias term) the per-candidate
  /// linear predictors score against. Every component is in [0, 1].
  static constexpr std::size_t kDim = 10;
  std::array<double, kDim> vec() const;

  /// Quantized workload shape — the plan-cache key. Deliberately
  /// excludes the transient pressure features: the cache answers "what
  /// did this workload shape converge to", and keying on pressure
  /// would fragment a shape across the windows right after a phase
  /// shift (exactly when the warm hit matters).
  std::uint64_t shape_key() const;
};

/// Learned-selection knobs. Disabled by default: a Coordinator built
/// without options is bit-identical to the pre-selector behavior.
struct SelectorOptions {
  bool enabled = false;
  /// false freezes the model and the plan cache (predict/replay only —
  /// no weight updates, no commits, no cache writes).
  bool learn = true;
  /// Prediction is used only when best minus runner-up score clears
  /// this margin; below it the hill-climb explorer runs the window.
  double confidence_margin = 0.04;
  /// Optional epsilon-greedy exploration of a random candidate on
  /// predicted windows (seeded below; 0 = off, the default, so
  /// decisions replay from (seed, plan-cache state) alone).
  double explore_epsilon = 0.0;
  /// Weight updates required before predictions are trusted at all; a
  /// fresh model always defers to the explorer ("never-seen feature
  /// region" in ROADMAP terms).
  std::uint64_t min_updates = 64;
  std::uint64_t seed = 1;
  /// Persistent plan-cache file; empty = in-memory only. Loaded at
  /// construction (corrupt -> ignored and rebuilt), flushed when dirty
  /// on destruction and every 30 s of injected time.
  std::string plan_cache_path;
  common::Clock time = common::Clock::Real();

  /// Defaults plus the environment, parsed with the strict helpers in
  /// common/env.h (a malformed flag warns on stderr and keeps the
  /// default):
  ///   DIALGA_PLAN_CACHE        cache path (non-empty enables the
  ///                            selector; "~" prefix expands to $HOME)
  ///   DIALGA_SELECTOR          on/off master switch
  static SelectorOptions FromEnv();
};

/// Per-instance mirror of the dialga_selector_* / dialga_plan_cache_*
/// registry families, for tests and the --phase-shift bench.
struct SelectorStats {
  std::uint64_t predictions = 0;  ///< confident model decisions
  std::uint64_t fallbacks = 0;    ///< windows deferred to the explorer
  std::uint64_t updates = 0;      ///< weight updates applied
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t commits = 0;      ///< strategies committed to the cache
  std::uint64_t flushes = 0;      ///< successful cache file writes
  double last_confidence = 0.0;
};

/// Persistent shape_key -> converged-Strategy store. File format
/// (little-endian):
///   u32 magic 'DPLC'  u32 version  u32 count  u32 reserved
///   count x { u64 shape_key, u64 strategy_key, u64 reward_millis }
///   u32 CRC-32C over everything above
/// Entries are serialized in ascending shape_key order so identical
/// contents produce identical bytes. Any mismatch (magic, version,
/// size, checksum) makes load() return false with the cache left
/// empty — corrupt caches are rebuilt, never trusted.
class PlanCache {
 public:
  struct Entry {
    std::uint64_t strategy_key = 0;
    /// Best reward observed under this entry, in [-1, 1] (stored for
    /// introspection; not used by decide()).
    double reward = 0.0;
  };

  static constexpr std::uint32_t kMagic = 0x434C5044u;  // "DPLC"
  static constexpr std::uint32_t kVersion = 1;

  /// Replace contents from `path`. False (and an empty cache) when the
  /// file is missing, truncated, version-skewed or checksum-corrupt.
  bool load(const std::string& path);
  /// load(), but a present-yet-unreadable file gets one stderr line
  /// (missing is normal on first run and stays silent).
  bool load_warn_if_corrupt(const std::string& path);
  /// Atomically (tmp + rename) persist to `path`; clears the dirty
  /// flag and counts a dialga_plan_cache_flushes_total on success.
  bool flush(const std::string& path);

  /// Counts dialga_plan_cache_{hits,misses}_total.
  const Entry* lookup(std::uint64_t shape_key) const;
  void insert(std::uint64_t shape_key, const Entry& e);
  void erase(std::uint64_t shape_key);

  std::size_t size() const { return map_.size(); }
  bool dirty() const { return dirty_; }

  std::vector<std::uint8_t> serialize() const;
  bool deserialize(const std::vector<std::uint8_t>& bytes);

 private:
  std::unordered_map<std::uint64_t, Entry> map_;
  bool dirty_ = false;
};

/// What the selector wants for the next window.
struct SelectorDecision {
  bool valid = false;      ///< selector engaged for this window
  bool fallback = true;    ///< defer to the hill-climb explorer
  bool from_cache = false; ///< cached points straight at a Strategy
  bool hw_prefetch = true;
  std::size_t sw_distance = 0;
  Strategy cached{};       ///< realized strategy when from_cache
  double confidence = 0.0; ///< best minus runner-up predicted reward
  int candidate = -1;      ///< candidate grid index (-1 = none)
};

class StrategySelector {
 public:
  /// One point of the prediction grid: hardware prefetcher on/off x a
  /// software-prefetch distance bucket (0 = sw prefetch off).
  struct Candidate {
    bool hw_prefetch = true;
    std::size_t sw_distance = 0;
  };

  explicit StrategySelector(SelectorOptions opts);
  ~StrategySelector();  ///< graceful-shutdown flush

  StrategySelector(const StrategySelector&) = delete;
  StrategySelector& operator=(const StrategySelector&) = delete;

  /// Decide the next window: plan-cache hit > confident prediction >
  /// fallback to the explorer.
  SelectorDecision decide(const WindowFeatures& f);

  /// Tell the selector what strategy actually ran the window just
  /// decided (after the coordinator realized/shaped it) — the
  /// training label. Maps the realized strategy to its nearest grid
  /// candidate, so explorer-driven windows train the model too.
  void note_applied(const Strategy& realized);

  /// Observed post-decision reward for the pending window: throughput
  /// relative to the recent best window for its shape, mapped to
  /// [-1, 1]. Trains the applied candidate, accumulates the per-shape
  /// commit evidence (the shape's best-observed strategy is committed
  /// once enough windows are credited), and evicts cache entries that
  /// stay badly below peak. The first window after a shape switch is
  /// dropped: it straddles the phase boundary and measures a mixture
  /// of the old and new workloads.
  void credit(double window_gbps);

  /// Commit a converged strategy for `f`'s shape to the plan cache
  /// (the explorer's outcome). No-op when learning is frozen or the
  /// cache already holds this exact strategy.
  void commit(const WindowFeatures& f, const Strategy& converged);

  /// Flush the plan cache if dirty and 30 s of injected time has
  /// passed since the last flush.
  void maybe_flush();
  /// Unconditional flush (graceful shutdown); no-op without a path or
  /// when clean.
  void flush();

  const SelectorStats& stats() const { return stats_; }
  const SelectorOptions& options() const { return opts_; }
  const std::vector<Candidate>& candidates() const { return candidates_; }
  const PlanCache& plan_cache() const { return cache_; }
  PlanCache& plan_cache() { return cache_; }

  // Test hooks: direct weight access for synthetic-reward training.
  void train(const WindowFeatures& f, int candidate, double reward);
  double score(const WindowFeatures& f, int candidate) const;
  int nearest_candidate(bool hw_prefetch, std::size_t sw_distance) const;

 private:
  SelectorOptions opts_;
  std::vector<Candidate> candidates_;
  /// One linear predictor per candidate over WindowFeatures::vec().
  std::vector<std::array<double, WindowFeatures::kDim>> weights_;
  PlanCache cache_;
  std::mt19937_64 rng_;
  SelectorStats stats_;

  /// Recent-best window throughput per shape (decaying max) — the
  /// reward reference.
  std::unordered_map<std::uint64_t, double> peak_gbps_;

  // Pending episode: the decision awaiting its reward.
  bool has_pending_ = false;
  WindowFeatures pending_f_{};
  int pending_candidate_ = -1;
  bool pending_from_cache_ = false;
  Strategy pending_strategy_{};

  /// Per-(shape, realized strategy) empirical throughput: the
  /// auto-commit evidence. The explorer changes strategy every probe
  /// window, so commit cannot wait for a stable streak of one strategy
  /// — instead each shape commits its best-observed strategy once
  /// enough windows are credited.
  struct StrategyRecord {
    std::uint32_t count = 0;
    double mean_gbps = 0.0;
  };
  struct ShapeEvidence {
    std::uint32_t windows = 0;  ///< credited non-cache windows
    std::unordered_map<std::uint64_t, StrategyRecord> by_strategy;
  };
  std::unordered_map<std::uint64_t, ShapeEvidence> evidence_;

  // Boundary-window detection + bad-streak cache eviction state.
  bool has_last_credit_shape_ = false;
  std::uint64_t last_credit_shape_ = 0;
  std::uint32_t cache_bad_streak_ = 0;

  std::uint64_t last_flush_ns_ = 0;
};

/// Eagerly register the dialga_selector_* / dialga_plan_cache_*
/// families (at zero) so a metrics scrape sees them even when learned
/// selection never engages. Called from the Coordinator constructor.
void TouchSelectorMetrics();

}  // namespace dialga
