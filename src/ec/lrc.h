// Locally Repairable Code LRC(k, m, l) — Azure-style (section 4.1
// "Other Coding Tasks", Fig. 16).
//
// The k data blocks are divided into l groups; each group gets one XOR
// local parity, and m Reed-Solomon global parities cover all k blocks.
// A single data erasure inside a group repairs locally by reading only
// the group (k/l blocks) instead of k. The Codec interface exposes the
// m + l parities as one parity span: [0, m) global, [m, m + l) local.
#pragma once

#include "ec/codec.h"
#include "ec/codec_util.h"
#include "gf/matrix.h"

namespace ec {

class LrcCodec : public Codec {
 public:
  LrcCodec(std::size_t k, std::size_t m, std::size_t l,
           SimdWidth simd = SimdWidth::kAvx512);

  std::string name() const override;
  /// params().m counts all parities (m global + l local).
  CodeParams params() const override { return {k_, m_ + l_}; }
  SimdWidth simd() const override { return simd_; }

  std::size_t global_parities() const { return m_; }
  std::size_t local_parities() const { return l_; }
  std::size_t group_size() const { return (k_ + l_ - 1) / l_; }
  /// Local group of a data block index.
  std::size_t group_of(std::size_t data_index) const {
    return data_index / group_size();
  }

  void encode(std::size_t block_size, std::span<const std::byte* const> data,
              std::span<std::byte* const> parity) const override;
  bool decode(std::size_t block_size, std::span<std::byte* const> blocks,
              std::span<const std::size_t> erasures) const override;
  /// One target row over the combined generator (global and local
  /// parities alike), via SystematicReconstruct.
  bool reconstruct(std::size_t block_size, std::span<std::byte* const> blocks,
                   std::span<const std::size_t> present,
                   std::size_t target) const override;

  /// LRC is not MDS: a local parity beside its whole group adds
  /// nothing. Rank over the combined generator.
  bool independent(std::span<const std::size_t> rows) const override;

  EncodePlan encode_plan(std::size_t block_size,
                         const simmem::ComputeCost& cost) const override;
  EncodePlan decode_plan(std::size_t block_size,
                         const simmem::ComputeCost& cost,
                         std::span<const std::size_t> erasures) const override;

  /// True when every erasure can be repaired purely locally (each
  /// affected group has exactly one erased data block and a live local
  /// parity) — the fast path both decode() and decode_plan() take.
  bool locally_repairable(std::span<const std::size_t> erasures) const;

 private:
  /// Combined (k + m + l) x k generator: identity, global Cauchy rows,
  /// then 0/1 local-group rows.
  gf::Matrix combined_generator() const;

  std::size_t k_;
  std::size_t m_;
  std::size_t l_;
  SimdWidth simd_;
  gf::Matrix gen_;  // (k+m) x k RS part
  // Global-parity coefficients prepared once at construction for the
  // fused encode driver.
  CoeffCache global_cache_;
};

}  // namespace ec
