#include "ec/isal.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "ec/codec_util.h"
#include "simmem/config.h"

namespace ec {

namespace {

/// Cycles to process one 64 B line against one parity row, given the
/// modelled SIMD width.
double PerLineParityCycles(const simmem::ComputeCost& cost, SimdWidth w) {
  return w == SimdWidth::kAvx512 ? cost.avx512_cycles_per_line_parity
                                 : cost.avx256_cycles_per_line_parity;
}

std::size_t Gcd(std::size_t a, std::size_t b) {
  while (b != 0) {
    a %= b;
    std::swap(a, b);
  }
  return a;
}

}  // namespace

std::vector<std::size_t> ShuffledOrder(std::size_t n, std::size_t window) {
  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t base = 0; base < n; base += window) {
    const std::size_t w = std::min(window, n - base);
    // Strided permutation within the window: deltas are +s or s-w, never
    // +1, so the L2 streamer never sees a sequential run.
    std::size_t stride = 1;
    for (const std::size_t s : {23u, 13u, 7u, 5u, 3u}) {
      if (s < w && Gcd(s, w) == 1) {
        stride = s;
        break;
      }
    }
    for (std::size_t i = 0; i < w; ++i) {
      order.push_back(base + (i * stride) % w);
    }
  }
  return order;
}

std::vector<std::size_t> ShuffledRowOrder(std::size_t rows) {
  return ShuffledOrder(rows, simmem::kPageBytes / simmem::kCacheLineBytes);
}

EncodePlan BuildRowPlan(std::size_t block_size,
                        std::span<const std::size_t> source_slots,
                        std::span<const std::size_t> target_slots,
                        std::size_t num_data, std::size_t num_parity,
                        double cycles_per_line,
                        const IsalPlanOptions& opts) {
  assert(block_size % simmem::kCacheLineBytes == 0);
  const std::size_t rows = block_size / simmem::kCacheLineBytes;
  constexpr std::size_t kLinesPerXp =
      simmem::kXpLineBytes / simmem::kCacheLineBytes;

  EncodePlan plan;
  plan.num_data = num_data;
  plan.num_parity = num_parity;
  plan.block_size = block_size;

  // --- Iteration structure -------------------------------------------
  // One iteration loads `group` consecutive rows from every source and
  // stores the same rows of every target. group == 1 is the stock
  // ISA-L loop; group == 4 is DIALGA's XPLine-widened loop.
  const std::size_t group =
      opts.widen_to_xpline ? std::min(kLinesPerXp, rows) : 1;
  const std::size_t num_groups = (rows + group - 1) / group;

  std::vector<std::size_t> group_order(num_groups);
  std::iota(group_order.begin(), group_order.end(), 0);
  if (opts.shuffle_rows) {
    // Shuffle at iteration granularity, with the shuffle window scaled
    // so it always spans one 4 KiB page; with group == 1 this is the
    // per-row shuffle of section 4.2.2.
    const std::size_t rows_per_page =
        simmem::kPageBytes / simmem::kCacheLineBytes;
    group_order = ShuffledOrder(num_groups, rows_per_page / group);
  }

  struct LoadTask {
    std::uint16_t slot;
    std::uint32_t offset;
  };
  std::vector<LoadTask> tasks;
  tasks.reserve(num_groups * group * source_slots.size());

  for (const std::size_t g : group_order) {
    const std::size_t row0 = g * group;
    const std::size_t rows_here = std::min(group, rows - row0);
    for (const std::size_t slot : source_slots) {
      for (std::size_t r = 0; r < rows_here; ++r) {
        tasks.push_back(
            {static_cast<std::uint16_t>(slot),
             static_cast<std::uint32_t>((row0 + r) *
                                        simmem::kCacheLineBytes)});
      }
    }
  }

  // --- Emission -------------------------------------------------------
  const std::size_t d = opts.prefetch_distance;
  const std::size_t d_first = opts.xpline_first_distance;
  const bool split_distances = d_first != 0 && d_first != d;

  auto emit_prefetch = [&](std::size_t target) {
    if (target >= tasks.size()) return;  // tail: revert to plain kernel
    if (tasks[target].offset < opts.prefetch_tail_offset) return;
    if (opts.naive_prefetch_penalty_cycles > 0.0) {
      plan.compute(opts.naive_prefetch_penalty_cycles);
    }
    plan.prefetch(tasks[target].slot, tasks[target].offset);
  };
  auto opens_xpline = [&](std::size_t idx) {
    return tasks[idx].offset % simmem::kXpLineBytes == 0;
  };

  std::size_t n = 0;
  for (std::size_t it = 0; it < num_groups; ++it) {
    const std::size_t g = group_order[it];
    const std::size_t row0 = g * group;
    const std::size_t rows_here = std::min(group, rows - row0);
    const std::size_t n_loads = source_slots.size() * rows_here;
    for (std::size_t l = 0; l < n_loads; ++l, ++n) {
      if (split_distances) {
        const std::size_t t1 = n + d_first;
        if (t1 < tasks.size() && opens_xpline(t1)) emit_prefetch(t1);
        if (d > 0) {
          const std::size_t t2 = n + d;
          if (t2 < tasks.size() && !opens_xpline(t2)) emit_prefetch(t2);
        }
      } else if (d > 0) {
        emit_prefetch(n + d);
      }
      plan.load(tasks[n].slot, tasks[n].offset);
      plan.compute(cycles_per_line);
    }
    for (const std::size_t slot : target_slots) {
      for (std::size_t r = 0; r < rows_here; ++r) {
        plan.store(slot, (row0 + r) * simmem::kCacheLineBytes);
      }
    }
  }
  // Persistence point: NT parity stores are made durable before the
  // stripe completes (the paper's final memory fence).
  plan.fence();
  return plan;
}

IsalCodec::IsalCodec(std::size_t k, std::size_t m, SimdWidth simd,
                     GeneratorKind gen)
    : k_(k),
      m_(m),
      simd_(simd),
      gen_kind_(gen),
      gen_(gen == GeneratorKind::kCauchy ? gf::cauchy_generator(k, m)
                                         : gf::vandermonde_generator(k, m)),
      parity_cache_(gen_, k, m, k) {
  assert(k > 0 && m > 0 && k + m <= gf::kFieldSize);
}

std::string IsalCodec::name() const { return "ISA-L"; }

void IsalCodec::encode(std::size_t block_size,
                       std::span<const std::byte* const> data,
                       std::span<std::byte* const> parity) const {
  encode_with(block_size, data, parity, HostKernelOptions{});
}

bool IsalCodec::decode(std::size_t block_size,
                       std::span<std::byte* const> blocks,
                       std::span<const std::size_t> erasures) const {
  return decode_with(block_size, blocks, erasures, HostKernelOptions{});
}

bool IsalCodec::reconstruct(std::size_t block_size,
                            std::span<std::byte* const> blocks,
                            std::span<const std::size_t> present,
                            std::size_t target) const {
  return SystematicReconstruct(gen_, k_, m_, block_size, blocks, present,
                               target);
}

void IsalCodec::encode_with(std::size_t block_size,
                            std::span<const std::byte* const> data,
                            std::span<std::byte* const> parity,
                            const HostKernelOptions& opts) const {
  assert(data.size() == k_ && parity.size() == m_);
  FusedEncode(parity_cache_, block_size, data, parity, opts);
}

bool IsalCodec::decode_with(std::size_t block_size,
                            std::span<std::byte* const> blocks,
                            std::span<const std::size_t> erasures,
                            const HostKernelOptions& opts) const {
  return SystematicDecode(gen_, k_, m_, block_size, blocks, erasures, opts);
}

EncodePlan IsalCodec::encode_plan(std::size_t block_size,
                                  const simmem::ComputeCost& cost) const {
  return encode_plan_with(block_size, cost, IsalPlanOptions{});
}

EncodePlan IsalCodec::encode_plan_with(std::size_t block_size,
                                       const simmem::ComputeCost& cost,
                                       const IsalPlanOptions& opts) const {
  std::vector<std::size_t> sources(k_);
  std::iota(sources.begin(), sources.end(), 0);
  std::vector<std::size_t> targets(m_);
  std::iota(targets.begin(), targets.end(), k_);
  const double cycles_per_line =
      cost.per_line_overhead_cycles +
      static_cast<double>(m_) * PerLineParityCycles(cost, simd_);
  return BuildRowPlan(block_size, sources, targets, k_, m_, cycles_per_line,
                      opts);
}

EncodePlan IsalCodec::decode_plan(std::size_t block_size,
                                  const simmem::ComputeCost& cost,
                                  std::span<const std::size_t> erasures)
    const {
  return decode_plan_with(block_size, cost, erasures, IsalPlanOptions{});
}

EncodePlan IsalCodec::decode_plan_with(
    std::size_t block_size, const simmem::ComputeCost& cost,
    std::span<const std::size_t> erasures,
    const IsalPlanOptions& opts) const {
  assert(erasures.size() <= m_);
  std::vector<bool> erased(k_ + m_, false);
  for (const std::size_t e : erasures) erased[e] = true;

  std::vector<std::size_t> sources;
  for (std::size_t i = 0; i < k_ + m_ && sources.size() < k_; ++i) {
    if (!erased[i]) sources.push_back(i);
  }
  std::vector<std::size_t> targets(erasures.begin(), erasures.end());

  const double cycles_per_line =
      cost.per_line_overhead_cycles +
      static_cast<double>(targets.size()) * PerLineParityCycles(cost, simd_);
  return BuildRowPlan(block_size, sources, targets, k_, m_, cycles_per_line,
                      opts);
}

}  // namespace ec
