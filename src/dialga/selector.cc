#include "dialga/selector.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/env.h"
#include "integrity/checksum.h"
#include "obs/metrics.h"

namespace dialga {
namespace {

// Candidate software-prefetch distance buckets (0 = sw prefetch off).
// Spans the coordinator's [kMinDistance, kMaxDistance] = [4, 256]
// climb range with denser coverage at the low end where the optimum
// usually lives.
constexpr std::size_t kDistances[] = {0, 4, 8, 16, 32, 48, 64, 96, 128, 192, 256};

struct SelectorMetrics {
  obs::Counter* predictions;
  obs::Counter* fallbacks;
  obs::Counter* updates;
  obs::Gauge* confidence;
  obs::Counter* cache_hits;
  obs::Counter* cache_misses;
  obs::Counter* flushes;
  obs::Counter* commits;

  SelectorMetrics() {
    auto& reg = obs::Registry::Global();
    predictions = &reg.counter("dialga_selector_predictions_total", {},
                               "Sampling windows decided by the learned "
                               "selector with confidence above margin");
    fallbacks = &reg.counter("dialga_selector_fallbacks_total", {},
                             "Sampling windows deferred to the hill-climb "
                             "fallback explorer");
    updates = &reg.counter("dialga_selector_updates_total", {},
                           "Online weight updates applied to the selector");
    confidence = &reg.gauge("dialga_selector_confidence", {},
                            "Confidence margin (best minus runner-up "
                            "predicted reward) of the latest decision");
    cache_hits = &reg.counter("dialga_plan_cache_hits_total", {},
                              "Plan-cache lookups that found a committed "
                              "strategy for the workload shape");
    cache_misses = &reg.counter("dialga_plan_cache_misses_total", {},
                                "Plan-cache lookups for a shape with no "
                                "committed strategy");
    flushes = &reg.counter("dialga_plan_cache_flushes_total", {},
                           "Successful plan-cache file writes");
    commits = &reg.counter("dialga_plan_cache_commits_total", {},
                           "Strategies committed to the plan cache");
  }
};

SelectorMetrics& Metrics() {
  static SelectorMetrics m;
  return m;
}

void AppendU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void AppendU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t ReadU32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t ReadU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::string ExpandHome(const std::string& path) {
  if (path.empty() || path[0] != '~') return path;
  const char* home = std::getenv("HOME");
  if (home == nullptr || *home == '\0') return path;
  return std::string(home) + path.substr(1);
}

// Credited (non-cache) windows a shape accumulates before its
// best-observed strategy is auto-committed to the plan cache. The
// explorer changes strategy every probe window, so the commit decision
// is evidence-based (best mean throughput), not streak-based.
constexpr std::uint32_t kCommitWindows = 8;
// Per-window decay on a shape's remembered peak throughput. A sticky
// all-time max would let one lucky window set a bar the steady state
// can never hold for kCommitStreak windows; decaying it keeps the
// commit gate relative to the *recent* peak.
constexpr double kPeakDecay = 0.98;
// Consecutive strongly-below-peak windows under a cached strategy
// before the entry is evicted (the workload's optimum moved).
constexpr std::uint32_t kEvictStreak = 8;
// Perceptron-style step size for w += lr * (r - w.x) * x.
constexpr double kLearningRate = 0.25;
// Periodic plan-cache flush cadence, in injected-clock time.
constexpr std::uint64_t kFlushPeriodNs = 30'000'000'000ull;

}  // namespace

std::array<double, WindowFeatures::kDim> WindowFeatures::vec() const {
  const double bs_log = block_size > 0
                            ? static_cast<double>(std::bit_width(block_size) - 1)
                            : 0.0;
  return {
      1.0,  // bias
      std::min<double>(static_cast<double>(k), 128.0) / 128.0,
      std::min<double>(static_cast<double>(m), 32.0) / 32.0,
      std::min(bs_log, 16.0) / 16.0,
      std::min<double>(static_cast<double>(nthreads), 64.0) / 64.0,
      std::min(latency_ratio, 4.0) / 4.0,
      std::min(useless_ratio, 8.0) / 8.0,
      contention ? 1.0 : 0.0,
      inefficient ? 1.0 : 0.0,
      std::clamp(service_load, 0.0, 1.0),
  };
}

std::uint64_t WindowFeatures::shape_key() const {
  const std::uint64_t bs_log =
      block_size > 0 ? static_cast<std::uint64_t>(std::bit_width(block_size) - 1)
                     : 0;
  std::uint64_t key = static_cast<std::uint64_t>(std::min<std::size_t>(k, 0xFFFF));
  key |= static_cast<std::uint64_t>(std::min<std::size_t>(m, 0xFF)) << 16;
  key |= (bs_log & 0x3F) << 24;
  key |= static_cast<std::uint64_t>(std::min<std::size_t>(nthreads, 63)) << 30;
  return key;
}

SelectorOptions SelectorOptions::FromEnv() {
  SelectorOptions opts;
  if (const char* path = std::getenv("DIALGA_PLAN_CACHE");
      path != nullptr && *path != '\0') {
    opts.plan_cache_path = ExpandHome(path);
    opts.enabled = true;
  }
  opts.enabled = common::EnvFlag("DIALGA_SELECTOR", opts.enabled);
  return opts;
}

// ---------------------------------------------------------------------------
// PlanCache

std::vector<std::uint8_t> PlanCache::serialize() const {
  std::vector<std::pair<std::uint64_t, Entry>> sorted(map_.begin(), map_.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<std::uint8_t> out;
  out.reserve(16 + sorted.size() * 24 + 4);
  AppendU32(out, kMagic);
  AppendU32(out, kVersion);
  AppendU32(out, static_cast<std::uint32_t>(sorted.size()));
  AppendU32(out, 0);  // reserved
  for (const auto& [key, e] : sorted) {
    AppendU64(out, key);
    AppendU64(out, e.strategy_key);
    // Reward stored as fixed-point millis: deterministic bytes, no
    // float-bit-pattern portability concerns.
    const auto millis = static_cast<std::int64_t>(
        std::lround(std::clamp(e.reward, -1.0, 1.0) * 1000.0));
    AppendU64(out, static_cast<std::uint64_t>(millis));
  }
  AppendU32(out, integrity::Crc32c(out.data(), out.size()));
  return out;
}

bool PlanCache::deserialize(const std::vector<std::uint8_t>& bytes) {
  map_.clear();
  dirty_ = false;
  if (bytes.size() < 20) return false;
  const std::size_t body = bytes.size() - 4;
  const std::uint32_t want = ReadU32(bytes.data() + body);
  if (integrity::Crc32c(bytes.data(), body) != want) return false;
  if (ReadU32(bytes.data()) != kMagic) return false;
  if (ReadU32(bytes.data() + 4) != kVersion) return false;
  const std::uint32_t count = ReadU32(bytes.data() + 8);
  if (body != 16 + static_cast<std::size_t>(count) * 24) return false;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t* p = bytes.data() + 16 + i * 24;
    Entry e;
    e.strategy_key = ReadU64(p + 8);
    e.reward =
        static_cast<double>(static_cast<std::int64_t>(ReadU64(p + 16))) / 1000.0;
    map_.emplace(ReadU64(p), e);
  }
  return true;
}

bool PlanCache::load(const std::string& path) {
  map_.clear();
  dirty_ = false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  if (!deserialize(bytes)) {
    map_.clear();
    dirty_ = false;
    return false;
  }
  return true;
}

bool PlanCache::load_warn_if_corrupt(const std::string& path) {
  if (load(path)) return true;
  // Missing is normal on first run; a present-but-unreadable file is
  // worth a line — it will be rebuilt from scratch.
  std::ifstream probe(path, std::ios::binary);
  if (probe) {
    std::fprintf(stderr,
                 "dialga: plan cache '%s' is corrupt or version-skewed; "
                 "ignoring and rebuilding\n",
                 path.c_str());
  }
  return false;
}

bool PlanCache::flush(const std::string& path) {
  const std::vector<std::uint8_t> bytes = serialize();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  dirty_ = false;
  Metrics().flushes->inc();
  return true;
}

const PlanCache::Entry* PlanCache::lookup(std::uint64_t shape_key) const {
  auto it = map_.find(shape_key);
  if (it == map_.end()) {
    Metrics().cache_misses->inc();
    return nullptr;
  }
  Metrics().cache_hits->inc();
  return &it->second;
}

void PlanCache::insert(std::uint64_t shape_key, const Entry& e) {
  auto it = map_.find(shape_key);
  if (it != map_.end() && it->second.strategy_key == e.strategy_key &&
      it->second.reward == e.reward) {
    return;
  }
  map_[shape_key] = e;
  dirty_ = true;
}

void PlanCache::erase(std::uint64_t shape_key) {
  if (map_.erase(shape_key) > 0) dirty_ = true;
}

// ---------------------------------------------------------------------------
// StrategySelector

StrategySelector::StrategySelector(SelectorOptions opts)
    : opts_(std::move(opts)), rng_(opts_.seed) {
  for (const bool hw : {true, false}) {
    for (const std::size_t d : kDistances) {
      candidates_.push_back({hw, d});
    }
  }
  weights_.assign(candidates_.size(), {});
  if (!opts_.plan_cache_path.empty()) {
    cache_.load_warn_if_corrupt(opts_.plan_cache_path);
  }
  last_flush_ns_ = opts_.time.now_ns ? opts_.time.now_ns() : 0;
}

StrategySelector::~StrategySelector() { flush(); }

int StrategySelector::nearest_candidate(bool hw_prefetch,
                                        std::size_t sw_distance) const {
  int best = -1;
  std::uint64_t best_gap = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    if (candidates_[i].hw_prefetch != hw_prefetch) continue;
    const std::uint64_t gap =
        candidates_[i].sw_distance > sw_distance
            ? candidates_[i].sw_distance - sw_distance
            : sw_distance - candidates_[i].sw_distance;
    if (gap < best_gap) {
      best_gap = gap;
      best = static_cast<int>(i);
    }
  }
  return best;
}

double StrategySelector::score(const WindowFeatures& f, int candidate) const {
  if (candidate < 0 || static_cast<std::size_t>(candidate) >= weights_.size()) {
    return 0.0;
  }
  const auto x = f.vec();
  const auto& w = weights_[static_cast<std::size_t>(candidate)];
  double s = 0.0;
  for (std::size_t i = 0; i < WindowFeatures::kDim; ++i) s += w[i] * x[i];
  return s;
}

void StrategySelector::train(const WindowFeatures& f, int candidate,
                             double reward) {
  if (candidate < 0 || static_cast<std::size_t>(candidate) >= weights_.size()) {
    return;
  }
  const auto x = f.vec();
  auto& w = weights_[static_cast<std::size_t>(candidate)];
  const double err = reward - score(f, candidate);
  for (std::size_t i = 0; i < WindowFeatures::kDim; ++i) {
    w[i] += kLearningRate * err * x[i];
  }
  ++stats_.updates;
  Metrics().updates->inc();
}

SelectorDecision StrategySelector::decide(const WindowFeatures& f) {
  SelectorDecision d;
  if (!opts_.enabled) return d;
  d.valid = true;

  // 1. Plan cache: a committed strategy for this shape replays
  //    verbatim — a warm process never re-searches a known workload.
  if (const PlanCache::Entry* e = cache_.lookup(f.shape_key()); e != nullptr) {
    d.fallback = false;
    d.from_cache = true;
    d.cached = Strategy::from_key(e->strategy_key);
    d.hw_prefetch = d.cached.hw_prefetch;
    d.sw_distance = d.cached.sw_distance;
    d.candidate = nearest_candidate(d.hw_prefetch, d.sw_distance);
    d.confidence = 1.0;
    ++stats_.cache_hits;
    has_pending_ = true;
    pending_f_ = f;
    pending_candidate_ = d.candidate;
    pending_from_cache_ = true;
    pending_strategy_ = d.cached;
    return d;
  }
  ++stats_.cache_misses;

  // 2. The learned predictor, once it has seen enough windows.
  if (stats_.updates >= opts_.min_updates) {
    int best = 0;
    double best_s = -std::numeric_limits<double>::infinity();
    double second_s = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
      const double s = score(f, static_cast<int>(i));
      if (s > best_s) {
        second_s = best_s;
        best_s = s;
        best = static_cast<int>(i);
      } else if (s > second_s) {
        second_s = s;
      }
    }
    const double margin = best_s - second_s;
    stats_.last_confidence = margin;
    Metrics().confidence->set(margin);
    if (margin >= opts_.confidence_margin) {
      if (opts_.explore_epsilon > 0.0) {
        std::uniform_real_distribution<double> u(0.0, 1.0);
        if (u(rng_) < opts_.explore_epsilon) {
          std::uniform_int_distribution<std::size_t> pick(
              0, candidates_.size() - 1);
          best = static_cast<int>(pick(rng_));
        }
      }
      d.fallback = false;
      d.candidate = best;
      d.hw_prefetch = candidates_[static_cast<std::size_t>(best)].hw_prefetch;
      d.sw_distance = candidates_[static_cast<std::size_t>(best)].sw_distance;
      d.confidence = margin;
      ++stats_.predictions;
      Metrics().predictions->inc();
      has_pending_ = true;
      pending_f_ = f;
      pending_candidate_ = d.candidate;
      pending_from_cache_ = false;
      pending_strategy_ = Strategy{};
      return d;
    }
  }

  // 3. Fallback: let the hill-climb explorer run this window; its
  //    realized strategy (via note_applied) becomes the training label.
  d.fallback = true;
  ++stats_.fallbacks;
  Metrics().fallbacks->inc();
  has_pending_ = true;
  pending_f_ = f;
  pending_candidate_ = -1;  // set by note_applied
  pending_from_cache_ = false;
  pending_strategy_ = Strategy{};
  return d;
}

void StrategySelector::note_applied(const Strategy& realized) {
  if (!has_pending_) return;
  pending_strategy_ = realized;
  pending_candidate_ =
      nearest_candidate(realized.hw_prefetch, realized.sw_distance);
}

void StrategySelector::credit(double window_gbps) {
  if (!has_pending_) return;
  const WindowFeatures f = pending_f_;
  const int cand = pending_candidate_;
  const bool from_cache = pending_from_cache_;
  const Strategy applied = pending_strategy_;
  has_pending_ = false;
  if (window_gbps <= 0.0) return;

  const std::uint64_t shape = f.shape_key();
  // The first window after a shape switch straddles the phase
  // boundary: its throughput measures a mixture of the old and new
  // workloads. Training or accumulating commit evidence on it would
  // poison both, so the episode is dropped.
  if (has_last_credit_shape_ && shape != last_credit_shape_) {
    last_credit_shape_ = shape;
    return;
  }
  has_last_credit_shape_ = true;
  last_credit_shape_ = shape;

  double& peak = peak_gbps_[shape];
  peak = std::max(window_gbps, peak * kPeakDecay);
  // Reward: throughput relative to the best recent window this shape
  // has produced, mapped to [-1, 1]. Peak-relative (not delta-vs-EWMA)
  // so steady state keeps a strong positive signal for the strategy
  // that holds the peak instead of collapsing every reward toward zero.
  const double r =
      std::clamp(2.0 * (window_gbps / std::max(peak, 1e-12)) - 1.0, -1.0, 1.0);

  if (opts_.learn && cand >= 0) train(f, cand, r);

  if (!opts_.learn) return;

  if (from_cache) {
    // Evict a cached plan that stays badly below the shape's peak —
    // the workload behind this shape changed and the entry is toxic.
    if (r < -0.5) {
      if (++cache_bad_streak_ >= kEvictStreak) {
        cache_.erase(shape);
        cache_bad_streak_ = 0;
      }
    } else {
      cache_bad_streak_ = 0;
    }
    return;
  }
  cache_bad_streak_ = 0;

  // Auto-commit: once a shape has accumulated kCommitWindows credited
  // windows, its best-observed strategy (by mean throughput) is the
  // converged plan. Only strategies observed at least twice qualify —
  // a single window can be a startup or noise outlier measured far
  // from its steady state; if nothing has repeated yet, the commit
  // waits for the next evidence batch.
  ShapeEvidence& ev = evidence_[shape];
  StrategyRecord& rec = ev.by_strategy[applied.key()];
  ++rec.count;
  rec.mean_gbps += (window_gbps - rec.mean_gbps) / rec.count;
  if (++ev.windows % kCommitWindows == 0) {
    std::uint64_t best_key = 0;
    double best_mean = 0.0;
    bool have = false;
    for (const auto& [key, sr] : ev.by_strategy) {
      if (sr.count < 2) continue;
      if (!have || sr.mean_gbps > best_mean) {
        best_key = key;
        best_mean = sr.mean_gbps;
        have = true;
      }
    }
    if (have) commit(f, Strategy::from_key(best_key));
  }
}

void StrategySelector::commit(const WindowFeatures& f,
                              const Strategy& converged) {
  if (!opts_.enabled || !opts_.learn) return;
  const std::uint64_t shape = f.shape_key();
  PlanCache::Entry e;
  e.strategy_key = converged.key();
  const auto it = peak_gbps_.find(shape);
  e.reward = it != peak_gbps_.end() && it->second > 0.0 ? 1.0 : 0.0;
  const std::size_t before = cache_.size();
  const bool was_dirty = cache_.dirty();
  cache_.insert(shape, e);
  if (cache_.size() != before || (cache_.dirty() && !was_dirty)) {
    ++stats_.commits;
    Metrics().commits->inc();
  }
}

void StrategySelector::maybe_flush() {
  if (opts_.plan_cache_path.empty() || !cache_.dirty() || !opts_.learn) return;
  const std::uint64_t now = opts_.time.now_ns ? opts_.time.now_ns() : 0;
  if (now - last_flush_ns_ < kFlushPeriodNs) return;
  last_flush_ns_ = now;
  if (cache_.flush(opts_.plan_cache_path)) ++stats_.flushes;
}

void StrategySelector::flush() {
  if (opts_.plan_cache_path.empty() || !cache_.dirty() || !opts_.learn) return;
  if (cache_.flush(opts_.plan_cache_path)) ++stats_.flushes;
}

void TouchSelectorMetrics() { (void)Metrics(); }

}  // namespace dialga
