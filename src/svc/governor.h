// Pressure-aware bandwidth governor: the traffic scheduler that
// finally connects DIALGA's kernel-level pressure sensing to
// service-level shaping (ROADMAP open item 4).
//
// The request-count caps the service has carried since PR 2 treat a
// 16 MiB bulk encode and a 64 KiB degraded read as one slot each, so a
// rebuild storm can starve latency-sensitive reads while the queue
// looks healthy. The governor replaces them as the primary control
// (they stay on as a backstop) with byte-denominated scheduling
// borrowed from the usimm memory schedulers' write-drain idiom:
//
//  * per-class byte accounting — queued (admitted, undisbatched) and
//    in-flight (dispatched, uncompleted) bytes per TrafficClass;
//  * opportunistic drain — bulk/scrub/rebuild batches dispatch only
//    while degraded-read latency has headroom (observed EWMA within
//    a ratio of its decaying low-pressure floor — the same decaying-
//    minimum idiom the dialga::Coordinator baselines use);
//  * high/low watermark hysteresis — when deferred throttled bytes
//    back up past the high watermark the governor force-drains
//    regardless of headroom until the backlog falls below the low
//    watermark, so bulk is shaped, never wedged;
//  * pressure clamp — when the DIALGA coordinator reports contention
//    (the dialga_coord_contention gauge, an injected fault plan at
//    site "qos.contention", or an aggregated per-node report), the
//    scrub/rebuild in-flight budget and the cluster token buckets are
//    scaled down by clamp_factor until the signal clears;
//  * aging — a deferred batch older than max_defer_ns dispatches
//    unconditionally, so starvation of bulk is bounded by policy.
//
// Thread-safe; one governor is typically shared by a StripeService
// and a cluster::Coordinator. All scheduling state lives behind one
// mutex — the call sites (admission, dispatcher, completion) already
// serialize on locks of similar weight.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>

#include "common/clock.h"
#include "svc/traffic_class.h"

namespace svc {

struct GovernorConfig {
  /// Deferred-backlog watermarks over all throttled classes, bytes.
  /// Above high, forced drain engages; it disengages below low.
  std::uint64_t high_watermark_bytes = 64ull << 20;
  std::uint64_t low_watermark_bytes = 16ull << 20;
  /// In-flight byte budget per throttled class for opportunistic
  /// dispatch (scrub/rebuild budgets are scaled by clamp_factor under
  /// pressure). A batch larger than the budget borrows when that
  /// class has nothing in flight, so oversized batches cannot wedge.
  std::uint64_t bulk_inflight_cap = 8ull << 20;
  /// Admission backstop: a throttled class whose queued + in-flight
  /// bytes would exceed this is rejected (kRejectedBandwidth). 0 =
  /// unlimited.
  std::uint64_t backstop_bytes = 256ull << 20;
  /// Headroom bound: bulk drains opportunistically while the
  /// degraded-read latency EWMA stays within this ratio of its
  /// decaying low-pressure floor.
  double degraded_headroom_ratio = 1.5;
  /// Fixed degraded-read latency target in seconds; 0 = learn the
  /// floor from observed completions (decaying minimum).
  double degraded_target_s = 0.0;
  /// EWMA weight of the newest degraded-read latency sample.
  double latency_ewma_alpha = 0.2;
  /// Per-sample upward creep of the decaying floor, so the floor
  /// recovers after a transiently quiet calibration window instead of
  /// pinning the headroom bound to a lifetime minimum.
  double floor_decay = 0.02;
  /// Scrub/rebuild budget and token-bucket rate multiplier while the
  /// pressure signal holds.
  double clamp_factor = 0.25;
  /// How long one positive pressure observation keeps the clamp
  /// engaged; refreshed while the signal stays up.
  std::uint64_t pressure_hold_ns = 50'000'000;
  /// Oldest a deferred batch may grow before it dispatches
  /// unconditionally (starvation bound for bulk).
  std::uint64_t max_defer_ns = 100'000'000;
  /// Clock for hold and aging deadlines; tests pin it to Manual time.
  common::Clock time = common::Clock::Real();
};

/// Point-in-time governor snapshot (one lock acquisition, coherent).
struct GovernorStats {
  std::array<std::uint64_t, kTrafficClassCount> queued_bytes{};
  std::array<std::uint64_t, kTrafficClassCount> inflight_bytes{};
  std::array<std::uint64_t, kTrafficClassCount> admitted_bytes{};
  std::array<std::uint64_t, kTrafficClassCount> dispatched_bytes{};
  std::array<std::uint64_t, kTrafficClassCount> completed_bytes{};
  std::array<std::uint64_t, kTrafficClassCount> dropped_bytes{};
  std::uint64_t rejected_backstop = 0;
  std::uint64_t deferrals = 0;
  std::uint64_t forced_drains = 0;
  std::uint64_t opportunistic_drains = 0;
  std::uint64_t aged_drains = 0;
  std::uint64_t clamp_engaged = 0;
  std::uint64_t high_crossings = 0;
  std::uint64_t low_crossings = 0;
  bool draining = false;
  bool pressure = false;
  double rate_scale = 1.0;
  double degraded_ewma_s = 0.0;
  double degraded_floor_s = 0.0;
};

class BandwidthGovernor {
 public:
  explicit BandwidthGovernor(GovernorConfig cfg = {});

  /// Admission: account `bytes` as queued for `cls`. False (and no
  /// accounting) only for a throttled class over its backstop — the
  /// caller rejects with kRejectedBandwidth. Latency classes always
  /// admit.
  bool try_admit(TrafficClass cls, std::uint64_t bytes);

  /// Dispatch gate. Latency classes always pass (queued -> in-flight).
  /// Throttled classes pass under forced drain (watermark hysteresis),
  /// or opportunistically when within their in-flight budget AND
  /// degraded-read headroom exists (or nothing latency-sensitive is
  /// outstanding). False = defer; the caller retries later.
  bool try_dispatch(TrafficClass cls, std::uint64_t bytes);

  /// Unconditional dispatch accounting, for aged-out deferred batches
  /// and shutdown flushes. Counts as a forced drain.
  void force_dispatch(TrafficClass cls, std::uint64_t bytes);

  /// A dispatched request completed (any status): in-flight -= bytes.
  void on_complete(TrafficClass cls, std::uint64_t bytes);

  /// An admitted, never-dispatched request died (cancel, expiry,
  /// admission rollback): queued -= bytes.
  void on_drop(TrafficClass cls, std::uint64_t bytes);

  /// Served-request latency feed; only latency-class samples move the
  /// EWMA/floor the headroom bound is computed from.
  void observe_latency(TrafficClass cls, double seconds);

  /// How long a deferred batch waited before dispatch (histogram).
  void observe_defer(double seconds);

  /// Aggregated per-node pressure: each source (node id, shard, …)
  /// reports its own contention bit; any true engages the clamp.
  void report_pressure(std::uint64_t source, bool contended);

  /// Re-evaluate the external pressure signals (DIALGA contention
  /// gauge, "qos.contention" fault site) against the hold window.
  /// Called from the dispatch path; cheap enough for per-batch use.
  void poll();

  bool pressure() const;
  /// Token-bucket / budget multiplier: clamp_factor under pressure,
  /// 1.0 otherwise. cluster::Coordinator applies it to its buckets.
  double rate_scale() const;

  std::uint64_t max_defer_ns() const { return cfg_.max_defer_ns; }
  const GovernorConfig& config() const { return cfg_; }

  GovernorStats snapshot() const;

  /// Eagerly instantiate the dialga_qos_* metric families so exports
  /// carry them before any governed traffic flows (the metrics gate
  /// scrapes an idle process). Called from StripeService::Init().
  static void RegisterMetrics();

 private:
  enum class DrainMode { kOpportunistic, kForced, kAged };

  void PollLocked();
  bool HeadroomLocked() const;
  void GrantLocked(TrafficClass cls, std::uint64_t bytes, DrainMode mode);
  void SetPressureLocked(bool on);

  GovernorConfig cfg_;

  mutable std::mutex mu_;
  std::array<std::uint64_t, kTrafficClassCount> queued_{};
  std::array<std::uint64_t, kTrafficClassCount> inflight_{};
  std::array<std::uint64_t, kTrafficClassCount> admitted_{};
  std::array<std::uint64_t, kTrafficClassCount> dispatched_{};
  std::array<std::uint64_t, kTrafficClassCount> completed_{};
  std::array<std::uint64_t, kTrafficClassCount> dropped_{};
  std::uint64_t rejected_backstop_ = 0;
  std::uint64_t deferrals_ = 0;
  std::uint64_t forced_drains_ = 0;
  std::uint64_t opportunistic_drains_ = 0;
  std::uint64_t aged_drains_ = 0;
  std::uint64_t clamp_engaged_ = 0;
  std::uint64_t high_crossings_ = 0;
  std::uint64_t low_crossings_ = 0;
  bool draining_ = false;
  bool pressure_now_ = false;
  std::uint64_t pressure_until_ns_ = 0;
  std::map<std::uint64_t, bool> node_pressure_;
  double ewma_s_ = 0.0;
  double floor_s_ = 0.0;
};

}  // namespace svc
