#include "svc/governor.h"

#include <algorithm>

#include "fault/injector.h"
#include "obs/metrics.h"

namespace svc {

namespace {

/// Process-wide QoS metric families, one labelled series per traffic
/// class. References cached once; the registry map never sits on the
/// dispatch path.
struct QosMetrics {
  std::array<obs::Gauge*, kTrafficClassCount> inflight_bytes;
  std::array<obs::Gauge*, kTrafficClassCount> queued_bytes;
  std::array<obs::Counter*, kTrafficClassCount> inflight_bytes_total;
  obs::Counter& clamp_scrub;
  obs::Counter& clamp_rebuild;
  obs::Counter& drain_forced;
  obs::Counter& drain_opportunistic;
  obs::Counter& drain_aged;
  obs::Counter& crossings_high;
  obs::Counter& crossings_low;
  obs::Counter& deferrals;
  obs::Counter& rejected_backstop;
  obs::Gauge& pressure;
  obs::Histogram& defer_seconds;

  static QosMetrics& Get() {
    static QosMetrics m = [] {
      QosMetrics q{
          {},
          {},
          {},
          reg_counter("dialga_qos_clamp_total", {{"class", "scrub"}},
                      "Pressure-clamp engagements per throttled class"),
          reg_counter("dialga_qos_clamp_total", {{"class", "rebuild"}}),
          reg_counter("dialga_qos_drain_total", {{"mode", "forced"}},
                      "Throttled batches drained, by drain mode"),
          reg_counter("dialga_qos_drain_total", {{"mode", "opportunistic"}}),
          reg_counter("dialga_qos_drain_total", {{"mode", "aged"}}),
          reg_counter("dialga_qos_watermark_crossings_total",
                      {{"edge", "high"}},
                      "Deferred-backlog watermark crossings"),
          reg_counter("dialga_qos_watermark_crossings_total",
                      {{"edge", "low"}}),
          reg_counter("dialga_qos_deferred_total", {},
                      "Dispatch attempts the governor deferred"),
          reg_counter("dialga_qos_rejected_backstop_total", {},
                      "Admissions rejected at the byte backstop"),
          obs::Registry::Global().gauge(
              "dialga_qos_pressure", {},
              "1 while the governor's pressure clamp is engaged"),
          obs::Registry::Global().histogram(
              "dialga_qos_defer_seconds", obs::LatencyBounds(), {},
              "How long deferred batches waited before dispatch"),
      };
      for (std::size_t i = 0; i < kTrafficClassCount; ++i) {
        const char* cls = to_string(static_cast<TrafficClass>(i));
        q.inflight_bytes[i] = &obs::Registry::Global().gauge(
            "dialga_qos_bytes_in_flight", {{"class", cls}},
            "Dispatched-but-uncompleted bytes per traffic class");
        q.queued_bytes[i] = &obs::Registry::Global().gauge(
            "dialga_qos_bytes_queued", {{"class", cls}},
            "Admitted-but-undisbatched bytes per traffic class");
        q.inflight_bytes_total[i] = &obs::Registry::Global().counter(
            "dialga_qos_bytes_in_flight_total", {{"class", cls}},
            "Cumulative bytes that entered flight per traffic class");
      }
      return q;
    }();
    return m;
  }

 private:
  static obs::Counter& reg_counter(const std::string& name,
                                   const obs::Labels& labels,
                                   const std::string& help = "") {
    return obs::Registry::Global().counter(name, labels, help);
  }
};

std::size_t Idx(TrafficClass c) { return static_cast<std::size_t>(c); }

std::uint64_t SubClamped(std::uint64_t a, std::uint64_t b) {
  return a >= b ? a - b : 0;
}

}  // namespace

BandwidthGovernor::BandwidthGovernor(GovernorConfig cfg)
    : cfg_(std::move(cfg)) {
  if (cfg_.low_watermark_bytes > cfg_.high_watermark_bytes) {
    cfg_.low_watermark_bytes = cfg_.high_watermark_bytes;
  }
  cfg_.clamp_factor = std::clamp(cfg_.clamp_factor, 0.0, 1.0);
  RegisterMetrics();
}

void BandwidthGovernor::RegisterMetrics() { (void)QosMetrics::Get(); }

bool BandwidthGovernor::try_admit(TrafficClass cls, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t i = Idx(cls);
  if (IsThrottledClass(cls) && cfg_.backstop_bytes != 0 &&
      queued_[i] + inflight_[i] + bytes > cfg_.backstop_bytes) {
    ++rejected_backstop_;
    QosMetrics::Get().rejected_backstop.inc();
    return false;
  }
  queued_[i] += bytes;
  admitted_[i] += bytes;
  QosMetrics::Get().queued_bytes[i]->set(static_cast<double>(queued_[i]));
  return true;
}

bool BandwidthGovernor::try_dispatch(TrafficClass cls, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  PollLocked();
  if (!IsThrottledClass(cls)) {
    GrantLocked(cls, bytes, DrainMode::kOpportunistic);
    return true;
  }
  const std::uint64_t backlog = queued_[Idx(TrafficClass::kBulkEncode)] +
                                queued_[Idx(TrafficClass::kScrub)] +
                                queued_[Idx(TrafficClass::kRebuild)];
  // Watermark hysteresis over the throttled backlog (usimm write-drain
  // idiom): above high, drain unconditionally until below low.
  if (draining_) {
    if (backlog <= cfg_.low_watermark_bytes) {
      draining_ = false;
      ++low_crossings_;
      QosMetrics::Get().crossings_low.inc();
    } else {
      GrantLocked(cls, bytes, DrainMode::kForced);
      return true;
    }
  }
  if (!draining_ && backlog >= cfg_.high_watermark_bytes) {
    draining_ = true;
    ++high_crossings_;
    QosMetrics::Get().crossings_high.inc();
    GrantLocked(cls, bytes, DrainMode::kForced);
    return true;
  }
  // Opportunistic drain within the class's in-flight byte budget —
  // scaled down for scrub/rebuild while the pressure clamp holds.
  std::uint64_t cap = cfg_.bulk_inflight_cap;
  if (cls == TrafficClass::kScrub || cls == TrafficClass::kRebuild) {
    const double scale = pressure_now_ ? cfg_.clamp_factor : 1.0;
    cap = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(cap) * scale));
  }
  const std::size_t i = Idx(cls);
  // Borrow semantics: an oversized batch passes when the class is
  // idle, so a batch larger than the budget cannot wedge forever.
  if (inflight_[i] != 0 && inflight_[i] + bytes > cap) {
    ++deferrals_;
    QosMetrics::Get().deferrals.inc();
    return false;
  }
  const bool latency_outstanding =
      queued_[Idx(TrafficClass::kInteractiveRead)] +
          inflight_[Idx(TrafficClass::kInteractiveRead)] +
          queued_[Idx(TrafficClass::kDegradedRead)] +
          inflight_[Idx(TrafficClass::kDegradedRead)] >
      0;
  if (HeadroomLocked() || !latency_outstanding) {
    GrantLocked(cls, bytes, DrainMode::kOpportunistic);
    return true;
  }
  ++deferrals_;
  QosMetrics::Get().deferrals.inc();
  return false;
}

void BandwidthGovernor::force_dispatch(TrafficClass cls, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  GrantLocked(cls, bytes, DrainMode::kAged);
}

void BandwidthGovernor::GrantLocked(TrafficClass cls, std::uint64_t bytes,
                                    DrainMode mode) {
  const std::size_t i = Idx(cls);
  queued_[i] = SubClamped(queued_[i], bytes);
  inflight_[i] += bytes;
  dispatched_[i] += bytes;
  auto& m = QosMetrics::Get();
  m.queued_bytes[i]->set(static_cast<double>(queued_[i]));
  m.inflight_bytes[i]->set(static_cast<double>(inflight_[i]));
  m.inflight_bytes_total[i]->inc(bytes);
  if (IsThrottledClass(cls)) {
    switch (mode) {
      case DrainMode::kForced:
        ++forced_drains_;
        m.drain_forced.inc();
        break;
      case DrainMode::kOpportunistic:
        ++opportunistic_drains_;
        m.drain_opportunistic.inc();
        break;
      case DrainMode::kAged:
        ++aged_drains_;
        m.drain_aged.inc();
        break;
    }
  }
}

void BandwidthGovernor::on_complete(TrafficClass cls, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t i = Idx(cls);
  inflight_[i] = SubClamped(inflight_[i], bytes);
  completed_[i] += bytes;
  QosMetrics::Get().inflight_bytes[i]->set(static_cast<double>(inflight_[i]));
}

void BandwidthGovernor::on_drop(TrafficClass cls, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t i = Idx(cls);
  queued_[i] = SubClamped(queued_[i], bytes);
  dropped_[i] += bytes;
  QosMetrics::Get().queued_bytes[i]->set(static_cast<double>(queued_[i]));
}

void BandwidthGovernor::observe_latency(TrafficClass cls, double seconds) {
  if (cls != TrafficClass::kDegradedRead &&
      cls != TrafficClass::kInteractiveRead) {
    return;
  }
  if (seconds <= 0.0) return;
  std::lock_guard<std::mutex> lk(mu_);
  ewma_s_ = ewma_s_ <= 0.0 ? seconds
                           : (1.0 - cfg_.latency_ewma_alpha) * ewma_s_ +
                                 cfg_.latency_ewma_alpha * seconds;
  // Decaying minimum: the floor creeps up per sample so a transiently
  // quiet calibration window cannot pin the headroom bound forever —
  // the same fix the dialga::Coordinator baselines got.
  floor_s_ = floor_s_ <= 0.0
                 ? seconds
                 : std::min(seconds, floor_s_ * (1.0 + cfg_.floor_decay));
}

void BandwidthGovernor::observe_defer(double seconds) {
  QosMetrics::Get().defer_seconds.observe(seconds);
}

bool BandwidthGovernor::HeadroomLocked() const {
  if (ewma_s_ <= 0.0) return true;  // nothing observed yet
  if (cfg_.degraded_target_s > 0.0) return ewma_s_ <= cfg_.degraded_target_s;
  if (floor_s_ <= 0.0) return true;
  return ewma_s_ <= cfg_.degraded_headroom_ratio * floor_s_;
}

void BandwidthGovernor::report_pressure(std::uint64_t source, bool contended) {
  std::lock_guard<std::mutex> lk(mu_);
  node_pressure_[source] = contended;
  PollLocked();
}

void BandwidthGovernor::poll() {
  std::lock_guard<std::mutex> lk(mu_);
  PollLocked();
}

void BandwidthGovernor::PollLocked() {
  const std::uint64_t now = cfg_.time.now_ns();
  // External signals: the DIALGA coordinator's contention gauge (the
  // paper's PMU-derived read-pressure bit) and a deterministic fault
  // site tests drive contention through.
  static obs::Gauge& coord_contention = obs::Registry::Global().gauge(
      "dialga_coord_contention");
  const bool external =
      coord_contention.value() > 0.5 || fault::Fires("qos.contention");
  if (external) pressure_until_ns_ = now + cfg_.pressure_hold_ns;
  bool node = false;
  for (const auto& [src, contended] : node_pressure_) {
    if (contended) {
      node = true;
      break;
    }
  }
  SetPressureLocked(node || now < pressure_until_ns_);
}

void BandwidthGovernor::SetPressureLocked(bool on) {
  if (on == pressure_now_) return;
  pressure_now_ = on;
  auto& m = QosMetrics::Get();
  m.pressure.set(on ? 1.0 : 0.0);
  if (on) {
    ++clamp_engaged_;
    m.clamp_scrub.inc();
    m.clamp_rebuild.inc();
  }
}

bool BandwidthGovernor::pressure() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pressure_now_;
}

double BandwidthGovernor::rate_scale() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pressure_now_ ? cfg_.clamp_factor : 1.0;
}

GovernorStats BandwidthGovernor::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  GovernorStats s;
  s.queued_bytes = queued_;
  s.inflight_bytes = inflight_;
  s.admitted_bytes = admitted_;
  s.dispatched_bytes = dispatched_;
  s.completed_bytes = completed_;
  s.dropped_bytes = dropped_;
  s.rejected_backstop = rejected_backstop_;
  s.deferrals = deferrals_;
  s.forced_drains = forced_drains_;
  s.opportunistic_drains = opportunistic_drains_;
  s.aged_drains = aged_drains_;
  s.clamp_engaged = clamp_engaged_;
  s.high_crossings = high_crossings_;
  s.low_crossings = low_crossings_;
  s.draining = draining_;
  s.pressure = pressure_now_;
  s.rate_scale = pressure_now_ ? cfg_.clamp_factor : 1.0;
  s.degraded_ewma_s = ewma_s_;
  s.degraded_floor_s = floor_s_;
  return s;
}

}  // namespace svc
