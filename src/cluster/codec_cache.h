// Per-geometry codec cache of the cluster tier. Every node and the
// coordinator own one instance each, so each node keeps its own
// DIALGA planner (the per-node adaptation argument in node.h).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "cluster/placement.h"
#include "ec/codec.h"

namespace cluster {

class CodecCache {
 public:
  /// The codec for geom's (k, global, local), built on first use:
  /// LrcCodec when the geometry has groups, DialgaCodec for plain RS.
  const ec::Codec& get(const Geometry& geom);

 private:
  std::mutex mu_;
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
           std::unique_ptr<const ec::Codec>>
      codecs_;  // guarded by mu_
};

}  // namespace cluster
