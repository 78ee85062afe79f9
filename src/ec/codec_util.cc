#include "ec/codec_util.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <numeric>

#include "obs/metrics.h"

namespace ec {

namespace {

/// Per-(isa, fused) byte counters, all series registered up front so
/// the family is present in every scrape and steady-state increments
/// never touch the registry map. One relaxed add per chunk group.
obs::Counter& kernel_bytes(gf::IsaLevel isa, bool fused) {
  static const auto* slots = [] {
    auto* s = new std::array<obs::Counter*, gf::kNumIsaLevels * 2>;
    for (std::size_t l = 0; l < gf::kNumIsaLevels; ++l) {
      for (int f = 0; f < 2; ++f) {
        (*s)[l * 2 + f] = &obs::Registry::Global().counter(
            "dialga_gf_kernel_bytes_total",
            {{"fused", f != 0 ? "true" : "false"},
             {"isa", gf::isa_name(static_cast<gf::IsaLevel>(l))}},
            "GF multiply-accumulate region bytes executed by the host "
            "kernels (source bytes x destinations)");
      }
    }
    return s;
  }();
  return *(*slots)[static_cast<std::size_t>(isa) * 2 + (fused ? 1 : 0)];
}

/// Fused-driver invocations per ISA backend.
obs::Counter& dispatch_count(gf::IsaLevel isa) {
  static const auto* slots = [] {
    auto* s = new std::array<obs::Counter*, gf::kNumIsaLevels>;
    for (std::size_t l = 0; l < gf::kNumIsaLevels; ++l) {
      (*s)[l] = &obs::Registry::Global().counter(
          "dialga_gf_dispatch_total",
          {{"isa", gf::isa_name(static_cast<gf::IsaLevel>(l))}},
          "Fused kernel driver invocations per active ISA backend");
    }
    return s;
  }();
  return *(*slots)[static_cast<std::size_t>(isa)];
}

obs::Histogram& encode_bytes_hist() {
  static obs::Histogram& h = obs::Registry::Global().histogram(
      "dialga_gf_encode_bytes", obs::Pow2Bounds(30), {},
      "Block bytes per fused encode/decode driver call");
  return h;
}

std::size_t chunk_of(const HostKernelOptions& opts) {
  const std::size_t chunk = opts.chunk_bytes & ~std::size_t{63};
  return chunk == 0 ? 64 : chunk;
}

}  // namespace

CoeffCache::CoeffCache(const gf::Matrix& mat, std::size_t row0,
                       std::size_t nrows, std::size_t cols)
    : nrows_(nrows), cols_(cols), coeffs_(nrows * cols) {
  for (std::size_t i = 0; i < cols; ++i) {
    for (std::size_t j = 0; j < nrows; ++j) {
      coeffs_[i * nrows + j] = gf::prepare_coeff(mat.at(row0 + j, i));
    }
  }
}

CoeffCache::CoeffCache(const gf::Matrix& mat,
                       std::span<const std::size_t> row_list,
                       std::size_t cols)
    : nrows_(row_list.size()), cols_(cols), coeffs_(row_list.size() * cols) {
  for (std::size_t i = 0; i < cols; ++i) {
    for (std::size_t j = 0; j < nrows_; ++j) {
      coeffs_[i * nrows_ + j] = gf::prepare_coeff(mat.at(row_list[j], i));
    }
  }
}

void FusedEncode(const CoeffCache& cache, std::size_t block_size,
                 std::span<const std::byte* const> srcs,
                 std::span<std::byte* const> dsts,
                 const HostKernelOptions& opts) {
  const std::size_t k = cache.cols();
  const std::size_t m = cache.rows();
  assert(srcs.size() == k && dsts.size() == m);
  if (m == 0 || block_size == 0) return;
  if (k == 0) {
    for (std::byte* dst : dsts) std::memset(dst, 0, block_size);
    return;
  }

  const gf::IsaLevel isa = gf::active_isa();
  dispatch_count(isa).inc();
  encode_bytes_hist().observe(static_cast<double>(block_size));
  obs::Counter& bytes = kernel_bytes(isa, /*fused=*/true);

  const std::size_t chunk = chunk_of(opts);
  const std::size_t d = opts.prefetch_distance;
  std::vector<const std::byte*> pf;
  std::vector<const std::byte*> chunk_srcs(k);

  for (std::size_t off = 0; off < block_size; off += chunk) {
    const std::size_t n = std::min(chunk, block_size - off);
    for (std::size_t i = 0; i < k; ++i) chunk_srcs[i] = srcs[i] + off;
    // Full chunks get the branchless prefetch-pointer array
    // (section 4.2.2): line-task t is (source t / lines, line
    // t % lines); entry t holds the address of task t + d, clamped to
    // the last task, so the kernel issues one prefetch per line with
    // no bounds test. When d mod lines != 0 the entries near a source
    // boundary point into the next source's chunk — the paper's two
    // offset groups fall out of the layout. Tail chunks run plain.
    const bool full = n == chunk && d > 0;
    const std::size_t lines = n / 64;
    if (full) {
      pf.resize(k * lines);
      const std::size_t last = k * lines - 1;
      for (std::size_t t = 0; t < k * lines; ++t) {
        const std::size_t target = std::min(t + d, last);
        pf[t] = srcs[target / lines] + off + (target % lines) * 64;
      }
    }
    for (std::size_t j0 = 0; j0 < m; j0 += gf::kMaxFusedDst) {
      const std::size_t g = std::min(gf::kMaxFusedDst, m - j0);
      std::byte* group[gf::kMaxFusedDst];
      for (std::size_t t = 0; t < g; ++t) group[t] = dsts[j0 + t] + off;
      // One dot-product call per parity group: all g accumulators live
      // in registers across the whole source loop (SET semantics, so
      // no pre-zeroing pass either).
      gf::mul_dot_multi(cache.data() + j0, cache.stride(),
                        chunk_srcs.data(), k, group, g, n,
                        full ? pf.data() : nullptr, lines);
      bytes.inc(static_cast<std::uint64_t>(n) * g * k);
    }
  }
}

void FusedXorInto(std::span<const std::byte* const> srcs, std::byte* dst,
                  std::size_t block_size, const HostKernelOptions& opts) {
  if (block_size == 0 || srcs.empty()) return;
  const std::size_t chunk = chunk_of(opts);
  obs::Counter& bytes = kernel_bytes(gf::active_isa(), /*fused=*/true);
  for (std::size_t off = 0; off < block_size; off += chunk) {
    const std::size_t n = std::min(chunk, block_size - off);
    for (const std::byte* src : srcs) {
      gf::xor_acc(src + off, dst + off, n);
    }
    bytes.inc(static_cast<std::uint64_t>(n) * srcs.size());
  }
}

void NaiveSystematicEncode(const gf::Matrix& gen, std::size_t k,
                           std::size_t m, std::size_t block_size,
                           std::span<const std::byte* const> data,
                           std::span<std::byte* const> parity) {
  assert(data.size() == k && parity.size() == m);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t i = 0; i < k; ++i) {
      const gf::u8 c = gen.at(k + j, i);
      if (i == 0) {
        gf::mul_set(c, data[i], parity[j], block_size);
      } else {
        gf::mul_acc(c, data[i], parity[j], block_size);
      }
    }
  }
  kernel_bytes(gf::active_isa(), /*fused=*/false)
      .inc(static_cast<std::uint64_t>(block_size) * k * m);
}

void SystematicEncode(const gf::Matrix& gen, std::size_t k, std::size_t m,
                      std::size_t block_size,
                      std::span<const std::byte* const> data,
                      std::span<std::byte* const> parity,
                      const HostKernelOptions& opts) {
  assert(data.size() == k && parity.size() == m);
  const CoeffCache cache(gen, k, m, k);
  FusedEncode(cache, block_size, data, parity, opts);
}

bool SystematicDecode(const gf::Matrix& gen, std::size_t k, std::size_t m,
                      std::size_t block_size,
                      std::span<std::byte* const> blocks,
                      std::span<const std::size_t> erasures,
                      const HostKernelOptions& opts) {
  assert(blocks.size() == k + m);
  if (erasures.size() > m) return false;

  std::vector<bool> erased(k + m, false);
  for (const std::size_t e : erasures) {
    assert(e < k + m);
    if (erased[e]) return false;
    erased[e] = true;
  }

  std::vector<std::size_t> present;
  present.reserve(k);
  for (std::size_t i = 0; i < k + m && present.size() < k; ++i) {
    if (!erased[i]) present.push_back(i);
  }
  if (present.size() < k) return false;

  std::vector<std::size_t> erased_data;
  for (std::size_t i = 0; i < k; ++i) {
    if (erased[i]) erased_data.push_back(i);
  }

  if (!erased_data.empty()) {
    const auto dm = gf::decode_matrix(gen, present, erased_data);
    if (!dm) return false;
    const CoeffCache cache(*dm, 0, erased_data.size(), k);
    std::vector<const std::byte*> src_blocks(k);
    std::vector<std::byte*> out_blocks(erased_data.size());
    for (std::size_t c = 0; c < k; ++c) src_blocks[c] = blocks[present[c]];
    for (std::size_t r = 0; r < erased_data.size(); ++r) {
      out_blocks[r] = blocks[erased_data[r]];
    }
    FusedEncode(cache, block_size, src_blocks, out_blocks, opts);
  }

  std::vector<std::size_t> erased_parity_rows;
  std::vector<std::byte*> parity_out;
  for (std::size_t j = 0; j < m; ++j) {
    if (!erased[k + j]) continue;
    erased_parity_rows.push_back(k + j);
    parity_out.push_back(blocks[k + j]);
  }
  if (!erased_parity_rows.empty()) {
    const CoeffCache cache(gen, erased_parity_rows, k);
    std::vector<const std::byte*> src_blocks(blocks.begin(),
                                             blocks.begin() + k);
    FusedEncode(cache, block_size, src_blocks, parity_out, opts);
  }
  return true;
}

bool ReconstructArgsValid(std::size_t k, std::size_t total,
                          std::span<const std::size_t> present,
                          std::size_t target) {
  if (target >= total || present.size() != k) return false;
  std::vector<bool> seen(total, false);
  for (const std::size_t i : present) {
    if (i >= total || i == target || seen[i]) return false;
    seen[i] = true;
  }
  return true;
}

bool SystematicReconstruct(const gf::Matrix& gen, std::size_t k,
                           std::size_t m, std::size_t block_size,
                           std::span<std::byte* const> blocks,
                           std::span<const std::size_t> present,
                           std::size_t target) {
  if (blocks.size() != k + m ||
      !ReconstructArgsValid(k, k + m, present, target)) {
    return false;
  }
  std::vector<std::size_t> all_data(k);
  std::iota(all_data.begin(), all_data.end(), 0);
  const auto inv = gf::decode_matrix(gen, present, all_data);
  if (!inv) return false;
  const gf::Matrix row = gen.slice_rows(target, 1) * *inv;

  const CoeffCache cache(row, 0, 1, k);
  std::vector<const std::byte*> srcs(k);
  for (std::size_t c = 0; c < k; ++c) srcs[c] = blocks[present[c]];
  std::byte* const out[] = {blocks[target]};
  FusedEncode(cache, block_size, srcs, out);
  return true;
}

}  // namespace ec
