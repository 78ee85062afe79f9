// Exhaustive check of ec::Codec::reconstruct shared by the codec
// suites: every target, every k-subset of the other blocks as the
// survivors, every other block pointer null.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "ec/codec.h"
#include "gf/matrix.h"

struct ReconstructTally {
  std::size_t requests = 0;
  std::size_t singular = 0;  ///< requests refused
};

/// Encodes one seeded stripe with `codec`, then drives reconstruct for
/// every (target, k-subset) pair: it must return true exactly where
/// `gen`'s rows for the subset are invertible, and then the target's
/// original bytes.
inline ReconstructTally ReconstructEveryKSubset(const ec::Codec& codec,
                                                const gf::Matrix& gen,
                                                std::size_t bs,
                                                std::uint64_t seed) {
  const std::size_t k = codec.params().k, n = codec.params().total();
  std::mt19937_64 rng(seed);
  std::vector<std::vector<std::byte>> stripe(n, std::vector<std::byte>(bs));
  std::vector<const std::byte*> data;
  std::vector<std::byte*> parity;
  for (std::size_t i = 0; i < n; ++i) {
    if (i < k) {
      for (auto& b : stripe[i]) b = static_cast<std::byte>(rng());
      data.push_back(stripe[i].data());
    } else {
      parity.push_back(stripe[i].data());
    }
  }
  codec.encode(bs, data, parity);

  ReconstructTally tally;
  std::vector<std::byte> out(bs);
  for (std::size_t target = 0; target < n; ++target) {
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      if (std::popcount(mask) != static_cast<int>(k) ||
          ((mask >> target) & 1u) != 0) {
        continue;
      }
      std::vector<std::size_t> present;
      std::vector<std::byte*> blocks(n, nullptr);
      for (std::size_t i = 0; i < n; ++i) {
        if (((mask >> i) & 1u) == 0) continue;
        present.push_back(i);
        blocks[i] = stripe[i].data();
      }
      std::fill(out.begin(), out.end(), std::byte{0xa5});
      blocks[target] = out.data();
      const bool invertible =
          gf::decode_matrix(gen, present, std::vector<std::size_t>{0})
              .has_value();
      const bool ok = codec.reconstruct(bs, blocks, present, target);
      ++tally.requests;
      EXPECT_EQ(ok, invertible) << "target " << target << " mask " << mask;
      if (ok) {
        EXPECT_EQ(out, stripe[target])
            << "target " << target << " mask " << mask;
      } else {
        ++tally.singular;
      }
    }
  }
  return tally;
}
