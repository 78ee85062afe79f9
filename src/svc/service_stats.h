// Point-in-time stats snapshot of a StripeService. All counters are
// since service construction; pool counters are the delta attributed
// to this service's pool use (snapshot at construction subtracted).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "ec/thread_pool.h"

namespace svc {

struct ServiceStats {
  /// log2 batch-size histogram: bucket i counts dispatched batches of
  /// [2^i, 2^(i+1)) stripes; the last bucket absorbs everything larger.
  static constexpr std::size_t kBatchBuckets = 12;

  /// Bucket index for a dispatched batch of `stripes` stripes: a
  /// 1-stripe batch lands in bucket 0 ([1, 2)), and anything at or
  /// beyond 2^(kBatchBuckets-1) saturates into the last bucket. Public
  /// and constexpr so the edge cases are pinned by unit tests.
  static constexpr std::size_t BatchBucketIndex(std::size_t stripes) {
    std::size_t b = 0;
    while (stripes > 1 && b + 1 < kBatchBuckets) {
      stripes >>= 1;
      ++b;
    }
    return b;
  }

  // Admission.
  std::uint64_t admitted = 0;
  std::uint64_t admitted_encode = 0;
  std::uint64_t admitted_decode = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_class_limit = 0;
  /// Governor byte backstop (only with a BandwidthGovernor attached).
  std::uint64_t rejected_bandwidth = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t invalid = 0;

  // Completion.
  std::uint64_t completed_ok = 0;
  std::uint64_t decode_failed = 0;
  std::uint64_t codec_errors = 0;
  std::uint64_t cancelled = 0;
  /// Requests that expired — rejected already-expired at admission or
  /// swept out of the queue by the dispatcher.
  std::uint64_t deadline_exceeded = 0;

  // Queue / batcher.
  std::size_t queue_high_water = 0;
  std::uint64_t batches = 0;
  std::uint64_t dispatched_stripes = 0;
  std::array<std::uint64_t, kBatchBuckets> batch_size_log2{};

  // Thread-pool counters attributed to this service.
  ec::ThreadPoolStats pool;

  double mean_batch_stripes() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(dispatched_stripes) /
                              static_cast<double>(batches);
  }
};

}  // namespace svc
