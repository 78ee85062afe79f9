// Seed list for the seeded chaos suites (chaos, corruption chaos,
// cluster chaos, the QoS rebuild storm): fixed seeds 1..8, narrowed to
// one by a non-empty CHAOS_SEED so CI fans each suite out as a matrix
// without rebuilding. A malformed CHAOS_SEED fails the calling test
// loudly instead of quietly running some other seed.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/env.h"

inline std::vector<std::uint64_t> ChaosSeeds() {
  const char* env = common::EnvValue("CHAOS_SEED");
  if (env == nullptr) return {1, 2, 3, 4, 5, 6, 7, 8};
  std::uint64_t seed = 0;
  if (!common::ParseU64(env, &seed)) {
    ADD_FAILURE() << "CHAOS_SEED='" << env
                  << "' is not an unsigned integer; no seed ran";
    return {};
  }
  return {seed};
}
