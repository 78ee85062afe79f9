// Token-bucket rate limiter for the repair orchestrator's per-class
// bandwidth caps (scrub reads, rebuild writes). Time is a common::Clock
// so seeded chaos tests enforce the bandwidth invariant in
// deterministic virtual time while production uses the steady clock.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/clock.h"

namespace cluster {

class TokenBucket {
 public:
  /// rate <= 0 disables limiting entirely. Burst defaults to one
  /// second of rate (so a cold bucket admits an initial burst) and is
  /// clamped to at least one byte so progress is always possible.
  TokenBucket(double rate_bytes_per_sec, double burst_bytes,
              common::Clock time = common::Clock::Real())
      : rate_(rate_bytes_per_sec),
        burst_(std::max(1.0, burst_bytes > 0 ? burst_bytes
                                             : rate_bytes_per_sec)),
        time_(std::move(time)),
        tokens_(burst_),
        last_ns_(unlimited() ? 0 : time_.now_ns()) {}

  bool unlimited() const { return rate_ <= 0.0; }

  /// Block (via the injected sleep) until `bytes` tokens are
  /// available, then consume them. Returns the number of waits taken.
  /// Requests larger than the burst are admitted once the bucket is
  /// full — they borrow, so a single oversized chunk cannot deadlock.
  std::uint64_t throttle(std::uint64_t bytes) {
    if (unlimited()) {
      granted_.fetch_add(bytes, std::memory_order_relaxed);
      return 0;
    }
    std::uint64_t waits = 0;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      refill_locked();
      const double need = std::min(static_cast<double>(bytes), burst_);
      if (tokens_ >= need) {
        tokens_ -= static_cast<double>(bytes);  // may go negative: borrow
        granted_.fetch_add(bytes, std::memory_order_relaxed);
        return waits;
      }
      const double deficit = need - tokens_;
      const auto wait_ns =
          static_cast<std::uint64_t>(deficit / effective_rate() * 1e9) + 1;
      ++waits;
      waits_.fetch_add(1, std::memory_order_relaxed);
      lk.unlock();
      time_.sleep_ns(wait_ns);
      lk.lock();
    }
  }

  /// Total bytes ever granted / waits ever taken — the counters the
  /// rate-limit invariant checks read.
  std::uint64_t granted() const {
    return granted_.load(std::memory_order_relaxed);
  }
  std::uint64_t waits() const { return waits_.load(std::memory_order_relaxed); }

  double rate() const { return rate_; }
  double burst() const { return burst_; }

  /// Pressure modulation: the configured rate is multiplied by
  /// `scale` (clamped to (0, 1]) until the next call — the bandwidth
  /// governor clamps repair traffic this way while DIALGA's pressure
  /// signals report contention. The configured rate stays the ceiling;
  /// scale only ever slows the bucket down.
  void set_rate_scale(double scale) {
    scale_.store(std::clamp(scale, 1e-6, 1.0), std::memory_order_relaxed);
  }
  double rate_scale() const {
    return scale_.load(std::memory_order_relaxed);
  }
  /// Rate currently in force (configured rate x pressure scale).
  double effective_rate() const { return rate_ * rate_scale(); }

 private:
  void refill_locked() {
    const std::uint64_t now = time_.now_ns();
    if (now > last_ns_) {
      tokens_ = std::min(burst_, tokens_ + effective_rate() *
                                     static_cast<double>(now - last_ns_) /
                                     1e9);
      last_ns_ = now;
    }
  }

  const double rate_;
  const double burst_;
  common::Clock time_;
  std::mutex mu_;
  double tokens_;          // guarded by mu_
  std::uint64_t last_ns_;  // guarded by mu_
  std::atomic<double> scale_{1.0};
  std::atomic<std::uint64_t> granted_{0};
  std::atomic<std::uint64_t> waits_{0};
};

}  // namespace cluster
