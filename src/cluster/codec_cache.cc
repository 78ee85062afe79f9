#include "cluster/codec_cache.h"

#include "dialga/dialga.h"
#include "ec/lrc.h"

namespace cluster {

const ec::Codec& CodecCache::get(const Geometry& geom) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& codec = codecs_[std::make_tuple(geom.k, geom.global, geom.local)];
  if (codec == nullptr) {
    if (geom.local > 0) {
      codec = std::make_unique<ec::LrcCodec>(geom.k, geom.global, geom.local);
    } else {
      codec = std::make_unique<dialga::DialgaCodec>(geom.k, geom.global);
    }
  }
  return *codec;
}

}  // namespace cluster
