// Abstract erasure codec interface implemented by ISA-L, ISA-L-D,
// Zerasure, Cerasure and DIALGA.
//
// Every codec exposes two faces:
//   * functional: encode()/decode() on real host memory — exercised by
//     the test suite and the example applications;
//   * timing: encode_plan()/decode_plan() producing the codec's memory
//     access pattern for the simulator — exercised by the benchmarks.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "ec/plan.h"
#include "simmem/config.h"

namespace ec {

struct CodeParams {
  std::size_t k = 0;  ///< data blocks per stripe
  std::size_t m = 0;  ///< parity blocks per stripe

  std::size_t total() const { return k + m; }
};

class Codec {
 public:
  virtual ~Codec() = default;

  virtual std::string name() const = 0;
  virtual CodeParams params() const = 0;
  virtual SimdWidth simd() const = 0;

  /// Compute `m` parity blocks from `k` data blocks of `block_size`
  /// bytes each.
  virtual void encode(std::size_t block_size,
                      std::span<const std::byte* const> data,
                      std::span<std::byte* const> parity) const = 0;

  /// Reconstruct erased blocks in place. `blocks` holds all k+m block
  /// pointers (data then parity); `erasures` lists erased indices
  /// (contents of those blocks are ignored and overwritten). Returns
  /// false when more than m blocks are erased or the survivor set is
  /// singular.
  virtual bool decode(std::size_t block_size,
                      std::span<std::byte* const> blocks,
                      std::span<const std::size_t> erasures) const = 0;

  /// Rebuild the single block `target` from exactly the k survivors
  /// listed in `present` (distinct indices, none equal to `target`).
  /// Only blocks[target] and the present blocks are touched; every
  /// other pointer may be null. Returns false on a malformed request or
  /// when the survivor set is singular. The default runs decode() with
  /// throwaway blocks for the other erasures; systematic GF(2^8) codecs
  /// override it to compute the target row alone.
  virtual bool reconstruct(std::size_t block_size,
                           std::span<std::byte* const> blocks,
                           std::span<const std::size_t> present,
                           std::size_t target) const;

  /// True when the generator rows of `rows` (distinct block indices,
  /// data then parity) are linearly independent, so k of them feed
  /// reconstruct(). The default assumes an MDS code, where any k or
  /// fewer rows are; codecs that are not MDS override it.
  virtual bool independent(std::span<const std::size_t> rows) const;

  /// Memory access pattern of one stripe encode.
  virtual EncodePlan encode_plan(std::size_t block_size,
                                 const simmem::ComputeCost& cost) const = 0;

  /// Memory access pattern of one stripe decode with the given erasures.
  virtual EncodePlan decode_plan(std::size_t block_size,
                                 const simmem::ComputeCost& cost,
                                 std::span<const std::size_t> erasures)
      const = 0;
};

}  // namespace ec
