#include "ec/codec.h"

#include <memory>
#include <vector>

#include "ec/codec_util.h"

namespace ec {

bool Codec::reconstruct(std::size_t block_size,
                        std::span<std::byte* const> blocks,
                        std::span<const std::size_t> present,
                        std::size_t target) const {
  const CodeParams p = params();
  if (blocks.size() != p.total() ||
      !ReconstructArgsValid(p.k, p.total(), present, target)) {
    return false;
  }
  // Everything outside `present` is an erasure, so decode() sees exactly
  // this survivor set; the erasures other than the target decode into
  // throwaway buffers.
  std::vector<bool> survivor(p.total(), false);
  for (const std::size_t i : present) survivor[i] = true;
  std::vector<std::size_t> erasures;
  for (std::size_t i = 0; i < p.total(); ++i) {
    if (!survivor[i]) erasures.push_back(i);
  }
  const auto spare = std::make_unique_for_overwrite<std::byte[]>(
      (erasures.size() - 1) * block_size);
  std::vector<std::byte*> all(blocks.begin(), blocks.end());
  std::size_t used = 0;
  for (const std::size_t e : erasures) {
    if (e != target) all[e] = spare.get() + block_size * used++;
  }
  return decode(block_size, all, erasures);
}

bool Codec::independent(std::span<const std::size_t> rows) const {
  return rows.size() <= params().k;
}

}  // namespace ec
