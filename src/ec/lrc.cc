#include "ec/lrc.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <sstream>

#include "ec/codec_util.h"
#include "ec/isal.h"
#include "gf/gf_simd.h"

namespace ec {

LrcCodec::LrcCodec(std::size_t k, std::size_t m, std::size_t l,
                   SimdWidth simd)
    : k_(k),
      m_(m),
      l_(l),
      simd_(simd),
      gen_(gf::cauchy_generator(k, m)),
      global_cache_(gen_, k, m, k) {
  assert(k > 0 && m > 0 && l > 0 && l <= k);
}

std::string LrcCodec::name() const {
  std::ostringstream os;
  os << "LRC(" << k_ << "," << m_ << "," << l_ << ")";
  return os.str();
}

gf::Matrix LrcCodec::combined_generator() const {
  gf::Matrix g(k_ + m_ + l_, k_);
  for (std::size_t i = 0; i < k_ + m_; ++i)
    for (std::size_t j = 0; j < k_; ++j) g.at(i, j) = gen_.at(i, j);
  const std::size_t gsz = group_size();
  for (std::size_t grp = 0; grp < l_; ++grp) {
    for (std::size_t j = grp * gsz; j < std::min((grp + 1) * gsz, k_); ++j) {
      g.at(k_ + m_ + grp, j) = 1;
    }
  }
  return g;
}

void LrcCodec::encode(std::size_t block_size,
                      std::span<const std::byte* const> data,
                      std::span<std::byte* const> parity) const {
  assert(data.size() == k_ && parity.size() == m_ + l_);
  FusedEncode(global_cache_, block_size, data, parity.subspan(0, m_));
  const std::size_t gsz = group_size();
  for (std::size_t grp = 0; grp < l_; ++grp) {
    std::byte* out = parity[m_ + grp];
    const std::size_t first = grp * gsz;
    const std::size_t end = std::min((grp + 1) * gsz, k_);
    std::copy(data[first], data[first] + block_size, out);
    FusedXorInto(data.subspan(first + 1, end - first - 1), out, block_size);
  }
}

bool LrcCodec::locally_repairable(
    std::span<const std::size_t> erasures) const {
  std::vector<std::size_t> per_group(l_, 0);
  for (const std::size_t e : erasures) {
    if (e >= k_) return false;  // parity erasure: not a local repair
    ++per_group[group_of(e)];
  }
  for (std::size_t g = 0; g < l_; ++g) {
    if (per_group[g] > 1) return false;
  }
  return !erasures.empty();
}

bool LrcCodec::decode(std::size_t block_size,
                      std::span<std::byte* const> blocks,
                      std::span<const std::size_t> erasures) const {
  assert(blocks.size() == k_ + m_ + l_);
  if (erasures.empty()) return true;

  if (locally_repairable(erasures)) {
    const std::size_t gsz = group_size();
    for (const std::size_t e : erasures) {
      const std::size_t grp = group_of(e);
      std::byte* out = blocks[e];
      std::copy(blocks[k_ + m_ + grp], blocks[k_ + m_ + grp] + block_size,
                out);
      for (std::size_t j = grp * gsz; j < std::min((grp + 1) * gsz, k_);
           ++j) {
        if (j == e) continue;
        gf::xor_acc(blocks[j], out, block_size);
      }
    }
    return true;
  }
  return SystematicDecode(combined_generator(), k_, m_ + l_, block_size,
                          blocks, erasures);
}

bool LrcCodec::reconstruct(std::size_t block_size,
                           std::span<std::byte* const> blocks,
                           std::span<const std::size_t> present,
                           std::size_t target) const {
  return SystematicReconstruct(combined_generator(), k_, m_ + l_, block_size,
                               blocks, present, target);
}

bool LrcCodec::independent(std::span<const std::size_t> rows) const {
  if (rows.size() > k_) return false;
  // Data and global rows alone are Cauchy rows: any k are independent.
  if (std::none_of(rows.begin(), rows.end(),
                   [&](std::size_t r) { return r >= k_ + m_; })) {
    return true;
  }
  const gf::Matrix gen = combined_generator();
  gf::Matrix sub(rows.size(), k_);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::copy(gen.row(rows[i]).begin(), gen.row(rows[i]).end(),
              sub.row(i).begin());
  }
  return gf::rank(sub) == rows.size();
}

EncodePlan LrcCodec::encode_plan(std::size_t block_size,
                                 const simmem::ComputeCost& cost) const {
  std::vector<std::size_t> sources(k_);
  std::iota(sources.begin(), sources.end(), 0);
  std::vector<std::size_t> targets(m_ + l_);
  std::iota(targets.begin(), targets.end(), k_);
  const double per_parity = simd_ == SimdWidth::kAvx512
                                ? cost.avx512_cycles_per_line_parity
                                : cost.avx256_cycles_per_line_parity;
  const double xor_scale = simd_ == SimdWidth::kAvx256 ? 2.0 : 1.0;
  // Each data line feeds all m global parities plus exactly one local
  // XOR parity.
  const double cycles_per_line = cost.per_line_overhead_cycles +
                                 static_cast<double>(m_) * per_parity +
                                 cost.xor_cycles_per_line * xor_scale;
  return BuildRowPlan(block_size, sources, targets, k_, m_ + l_,
                      cycles_per_line, IsalPlanOptions{});
}

EncodePlan LrcCodec::decode_plan(std::size_t block_size,
                                 const simmem::ComputeCost& cost,
                                 std::span<const std::size_t> erasures)
    const {
  const double per_parity = simd_ == SimdWidth::kAvx512
                                ? cost.avx512_cycles_per_line_parity
                                : cost.avx256_cycles_per_line_parity;

  if (locally_repairable(erasures)) {
    // Read only the affected groups plus their local parities.
    const std::size_t gsz = group_size();
    std::vector<std::size_t> sources;
    for (const std::size_t e : erasures) {
      const std::size_t grp = group_of(e);
      for (std::size_t j = grp * gsz; j < std::min((grp + 1) * gsz, k_);
           ++j) {
        if (j != e) sources.push_back(j);
      }
      sources.push_back(k_ + m_ + grp);
    }
    std::vector<std::size_t> targets(erasures.begin(), erasures.end());
    const double xor_scale = simd_ == SimdWidth::kAvx256 ? 2.0 : 1.0;
    const double cycles_per_line =
        cost.per_line_overhead_cycles +
        cost.xor_cycles_per_line * xor_scale;
    return BuildRowPlan(block_size, sources, targets, k_, m_ + l_,
                        cycles_per_line, IsalPlanOptions{});
  }

  // Global decode: k survivors, data first then global then local.
  std::vector<bool> erased(k_ + m_ + l_, false);
  for (const std::size_t e : erasures) erased[e] = true;
  std::vector<std::size_t> sources;
  for (std::size_t i = 0; i < k_ + m_ + l_ && sources.size() < k_; ++i) {
    if (!erased[i]) sources.push_back(i);
  }
  std::vector<std::size_t> targets(erasures.begin(), erasures.end());
  const double cycles_per_line =
      cost.per_line_overhead_cycles +
      static_cast<double>(targets.size()) * per_parity;
  return BuildRowPlan(block_size, sources, targets, k_, m_ + l_,
                      cycles_per_line, IsalPlanOptions{});
}

}  // namespace ec
