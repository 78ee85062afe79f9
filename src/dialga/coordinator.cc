#include "dialga/coordinator.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace dialga {

namespace {
/// Distance search bounds: searching below 4 is pointless (no latency
/// left to hide) and beyond 256 the cache footprint dwarfs any gain.
constexpr std::size_t kMinDistance = 4;
constexpr std::size_t kMaxDistance = 256;

/// Registry mirror of the coordinator's sampling loop: counters for
/// windows taken and strategy flips, gauges for the last window's PMU
/// deltas and the strategy currently in force. Gauges are last-write-
/// wins across coordinators — with one live coordinator per process
/// (the usual shape) they read as "the current window".
struct CoordMetrics {
  obs::Counter& samples;
  obs::Counter& strategy_flips;
  obs::Gauge& window_latency_ns;
  obs::Gauge& window_useless;
  obs::Gauge& window_gbps;
  obs::Gauge& contention;
  obs::Gauge& inefficient;
  obs::Gauge& hw_prefetch;
  obs::Gauge& sw_distance;

  static CoordMetrics& Get() {
    auto& reg = obs::Registry::Global();
    static CoordMetrics m{
        reg.counter("dialga_coord_samples_total", {},
                    "PMU sampling windows the coordinator evaluated"),
        reg.counter("dialga_coord_strategy_flips_total", {},
                    "decide() calls that changed the strategy"),
        reg.gauge("dialga_coord_window_latency_ns", {},
                  "Last window's mean load-stall latency"),
        reg.gauge("dialga_coord_window_useless_prefetches", {},
                  "Last window's useless hardware prefetch count"),
        reg.gauge("dialga_coord_window_gbps", {},
                  "Last window's encode read throughput"),
        reg.gauge("dialga_coord_contention", {},
                  "1 when the last window crossed the contention ratio"),
        reg.gauge("dialga_coord_inefficient", {},
                  "1 when the last window crossed the useless-prefetch "
                  "ratio"),
        reg.gauge("dialga_coord_hw_prefetch", {},
                  "1 when the current strategy keeps the HW prefetcher"),
        reg.gauge("dialga_coord_sw_distance", {},
                  "Current software prefetch distance (0 = off)"),
    };
    return m;
  }
};
}  // namespace

Coordinator::Coordinator(const PatternInfo& pattern, const Features& features,
                         const Thresholds& thresholds,
                         std::size_t pm_buffer_bytes,
                         const SelectorOptions& selector)
    : pattern_(pattern),
      feat_(features),
      thr_(thresholds),
      pm_buffer_bytes_(pm_buffer_bytes),
      climber_(std::clamp(pattern.k, kMinDistance, kMaxDistance),
               kMinDistance, kMaxDistance) {
  // Register the selector/plan-cache metric families even when learned
  // selection never engages, so a scrape always sees them (at zero).
  TouchSelectorMetrics();
  if (selector.enabled && feat_.adaptive && feat_.sw_prefetch) {
    selector_ = std::make_unique<StrategySelector>(selector);
    consult_selector();  // a warm plan cache decides the first stripe
  }
  decide();
}

WindowFeatures Coordinator::make_features() const {
  WindowFeatures f;
  f.k = pattern_.k;
  f.m = pattern_.m;
  f.block_size = pattern_.block_size;
  f.nthreads = pattern_.nthreads;
  f.latency_ratio = last_latency_ratio_;
  f.useless_ratio = last_useless_ratio_;
  f.contention = contention_;
  f.inefficient = inefficient_;
  f.service_load = service_load_;
  return f;
}

void Coordinator::consult_selector() {
  if (!selector_) return;
  sel_ = selector_->decide(make_features());
  if (!sel_.valid || sel_.fallback) {
    last_source_ = sel_.valid ? DecisionSource::kExplore
                              : DecisionSource::kHeuristic;
  } else {
    last_source_ = sel_.from_cache ? DecisionSource::kCacheHit
                                   : DecisionSource::kPredicted;
  }
}

void Coordinator::observe_service_load(double load) {
  service_load_ = std::clamp(load, 0.0, 1.0);
}

void Coordinator::update_pattern(const PatternInfo& pattern) {
  if (pattern == pattern_) return;
  const bool k_changed = pattern.k != pattern_.k;
  pattern_ = pattern;
  // Re-consult the selector at the shape boundary: a plan-cache hit or
  // a confident prediction switches the strategy on the very next
  // stripe instead of waiting out a re-search (this is what makes the
  // phase-shift recovery O(1) windows).
  consult_selector();
  if ((!sel_.valid || sel_.fallback) && k_changed && !climber_.converged()) {
    // The distance search seed tracks k; restart an unconverged search
    // from the new shape's seed rather than let it finish climbing a
    // stale landscape. A converged distance is kept — the fluctuation
    // restart in sample() re-opens it if throughput actually moves.
    climber_.restart(std::clamp(pattern.k, kMinDistance, kMaxDistance));
  }
  decide();
}

double Coordinator::UpdateBaseline(std::vector<double>& ring,
                                   std::size_t& next, std::size_t& count,
                                   double current_min,
                                   double observation) const {
  if (thr_.baseline_window == 0) {
    // Legacy lifetime minimum, kept selectable for comparison runs.
    return current_min < 0.0 ? observation
                             : std::min(current_min, observation);
  }
  if (ring.size() != thr_.baseline_window) {
    ring.assign(thr_.baseline_window, 0.0);
    next = 0;
    count = 0;
  }
  ring[next] = observation;
  next = (next + 1) % ring.size();
  count = std::min(count + 1, ring.size());
  // O(window) scan at the 1 kHz sampling rate is negligible next to
  // the window's worth of simulated memory traffic.
  double min = ring[0];
  for (std::size_t i = 1; i < count; ++i) min = std::min(min, ring[i]);
  return min;
}

const Strategy& Coordinator::strategy(const simmem::MemorySystem& mem) {
  const double now = mem.max_clock();
  if (now - last_sample_time_ >= thr_.sample_interval_ns) {
    sample(mem, now);
  }
  return strat_;
}

void Coordinator::sample(const simmem::MemorySystem& mem, double now) {
  const simmem::PmuCounters delta = mem.pmu() - last_pmu_;
  const double elapsed = now - last_sample_time_;
  last_pmu_ = mem.pmu();
  last_sample_time_ = now;
  ++samples_;
  CoordMetrics::Get().samples.inc();
  if (delta.loads == 0 || elapsed <= 0.0) return;

  const double window_latency = delta.load_stall_ns /
                                static_cast<double>(delta.loads);
  const double window_useless = static_cast<double>(delta.hw_prefetches_useless);
  const double window_gbps =
      static_cast<double>(delta.encode_read_bytes) / elapsed;
  {
    auto& m = CoordMetrics::Get();
    m.window_latency_ns.set(window_latency);
    m.window_useless.set(window_useless);
    m.window_gbps.set(window_gbps);
  }

  // Low-pressure baselines: the least-contended window among the last
  // baseline_window samples (the paper calibrates them in a dedicated
  // low-pressure phase). A lifetime minimum would let one anomalously
  // quiet warm-up window keep contention_/inefficient_ asserted for
  // the rest of the run; the sliding window forgets it.
  baseline_latency_ns_ =
      UpdateBaseline(baseline_lat_ring_, baseline_lat_next_,
                     baseline_lat_count_, baseline_latency_ns_,
                     window_latency);
  baseline_useless_ =
      UpdateBaseline(baseline_useless_ring_, baseline_useless_next_,
                     baseline_useless_count_, baseline_useless_,
                     window_useless);

  contention_ =
      window_latency > thr_.latency_contention_ratio * baseline_latency_ns_;
  inefficient_ = window_useless > thr_.useless_prefetch_ratio *
                                      std::max(baseline_useless_, 16.0);
  CoordMetrics::Get().contention.set(contention_ ? 1.0 : 0.0);
  CoordMetrics::Get().inefficient.set(inefficient_ ? 1.0 : 0.0);
  last_latency_ratio_ = baseline_latency_ns_ > 0.0
                            ? window_latency / baseline_latency_ns_
                            : 1.0;
  last_useless_ratio_ =
      window_useless / std::max(baseline_useless_, 16.0);

  if (selector_) {
    // Close the previous window's episode: the observed throughput is
    // the reward for whatever strategy ran it (predicted, cached, or
    // explorer-chosen — all train the model).
    selector_->credit(window_gbps);
    // Open the next one.
    consult_selector();
  }

  const bool selector_drives = sel_.valid && !sel_.fallback;
  if (feat_.sw_prefetch && feat_.adaptive && !selector_drives) {
    // Throughput fluctuation restarts the distance search (paper: 10 %).
    if (last_window_gbps_ > 0.0 && climber_.converged()) {
      const double swing =
          std::abs(window_gbps - last_window_gbps_) / last_window_gbps_;
      if (swing > thr_.perf_fluctuation) climber_.restart(climber_.current());
    }
    climber_.observe(window_latency);
  }
  last_window_gbps_ = window_gbps;

  decide();

  if (selector_) {
    // Tell the selector what was actually put in force (the decide()
    // ladder may have shaped or overridden its suggestion) — this is
    // the label its next credit() trains against.
    selector_->note_applied(strat_);
    // An explorer convergence during fallback is a finished search:
    // commit the converged plan for this shape to the cache.
    if (sel_.valid && sel_.fallback && climber_.converged()) {
      selector_->commit(make_features(), strat_);
    }
    selector_->maybe_flush();
  }
  if (record_windows_) {
    windows_.push_back(
        {window_gbps, window_latency, strat_.key(), last_source_});
  }
}

void Coordinator::decide() {
  const Strategy prev = strat_;
  // Publish the decision on every exit path: flip counter when the
  // strategy changed, gauges for what is now in force.
  struct Publish {
    const Strategy& prev;
    const Strategy& cur;
    ~Publish() {
      auto& m = CoordMetrics::Get();
      if (!(prev == cur)) m.strategy_flips.inc();
      m.hw_prefetch.set(cur.hw_prefetch ? 1.0 : 0.0);
      m.sw_distance.set(static_cast<double>(cur.sw_distance));
    }
  } publish{prev, strat_};

  Strategy s;

  const bool selector_drives = sel_.valid && !sel_.fallback;

  // --- Plan-cache replay ----------------------------------------------
  // A cached plan is a full converged Strategy; replay it verbatim so a
  // warm process lands on the known-good configuration on the first
  // stripe. Only the feature gates still apply.
  if (selector_drives && sel_.from_cache) {
    s = sel_.cached;
    if (!feat_.hw_prefetch) s.hw_prefetch = false;
    if (!feat_.sw_prefetch) {
      s.sw_distance = 0;
      s.xpline_first_distance = 0;
      s.sw_tail_offset = 0;
    }
    strat_ = s;
    return;
  }

  // --- Hardware prefetcher -------------------------------------------
  if (!feat_.hw_prefetch) {
    s.hw_prefetch = false;
  } else if (selector_drives) {
    // Learned prediction replaces the threshold ladder.
    s.hw_prefetch = sel_.hw_prefetch;
  } else if (pattern_.k > thr_.wide_stripe_k) {
    // Wide stripes exceed the streamer's tracking capacity; it loses
    // confidence and shuts down on its own — no need to pay the
    // shuffle overhead to manage it.
    s.hw_prefetch = true;
  } else if (pattern_.nthreads > thr_.thread_threshold) {
    s.hw_prefetch = false;  // Eq. 1 says the read buffer will thrash
  } else if (contention_ && inefficient_) {
    s.hw_prefetch = false;
  } else {
    // Narrow stripes / small blocks prefetch inefficiently, but the
    // amplified traffic does not hurt under low pressure — leave it on.
    s.hw_prefetch = true;
  }

  // --- Software prefetch distance -------------------------------------
  if (feat_.sw_prefetch) {
    std::size_t d = feat_.adaptive
                        ? climber_.current()
                        : std::clamp(pattern_.k, kMinDistance, kMaxDistance);
    if (selector_drives) d = sel_.sw_distance;
    const bool high_pressure =
        pattern_.nthreads > thr_.thread_threshold || contention_;
    // 4 KiB-aligned blocks on trackable stripes: the streamer covers the
    // whole block at peak efficiency and never crosses the page, so
    // software prefetching only adds issue overhead and traffic
    // (section 4.1 "I/O Access Pattern"; Fig. 12's limited 4 KiB gains).
    // A learned prediction expresses "hw only" as distance 0 instead.
    const bool streamer_at_peak =
        !selector_drives && s.hw_prefetch &&
        pattern_.k <= thr_.wide_stripe_k &&
        pattern_.block_size >= thr_.large_block_bytes &&
        pattern_.block_size % thr_.large_block_bytes == 0;
    if ((streamer_at_peak && !high_pressure) ||
        (selector_drives && d == 0)) {
      strat_ = s;  // hw-only strategy
      return;
    }
    // Blocks beyond 4 KiB that are not 4 KiB multiples: the streamer
    // covers the aligned prefix; prefetch only the unaligned tail.
    if (s.hw_prefetch && pattern_.k <= thr_.wide_stripe_k &&
        pattern_.block_size > thr_.large_block_bytes && !high_pressure) {
      s.sw_tail_offset =
          pattern_.block_size / thr_.large_block_bytes *
          thr_.large_block_bytes;
    }
    if (feat_.buffer_friendly && high_pressure) {
      d = std::min(d, MaxDistanceForBuffer(pattern_.nthreads, pattern_.k,
                                           pattern_.m, pm_buffer_bytes_));
      s.widen_to_xpline = true;
    } else if (feat_.buffer_friendly) {
      // Low pressure: pull XPLine-opening lines in earlier (initially
      // k+4, then tracking the adapted distance).
      s.xpline_first_distance = d + 4;
    }
    s.sw_distance = d;
  }

  strat_ = s;
}

}  // namespace dialga
