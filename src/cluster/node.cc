#include "cluster/node.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "aio/datapath.h"
#include "fault/injector.h"
#include "gf/gf_simd.h"

namespace cluster {

namespace {

// Trailer appended to every persisted chunk: a payload checksum + a
// magic word, so a restarted node never trusts a torn or truncated
// chunk file (it is simply not loaded, and scrub rebuilds it). The
// magic doubles as the algorithm id: "DIALGA1" chunks carry FNV-1a
// sums (pre-CRC generations), "DIALGA2" chunks carry CRC-32C. New
// chunks persist with the magic matching their in-memory algo; both
// generations load.
constexpr std::uint64_t kChunkMagicFnv = 0x31414741'4c414944ull;  // "DIALGA1"
constexpr std::uint64_t kChunkMagicCrc = 0x32414741'4c414944ull;  // "DIALGA2"
constexpr std::size_t kTrailerBytes = 16;

std::uint64_t ChunkSum(integrity::ChecksumAlgo algo, const std::byte* p,
                       std::size_t n) {
  return integrity::Checksum(algo, p, n);
}

void PutTrailerU64(std::vector<std::byte>* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t GetTrailerU64(const std::byte* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

Frame MakeResp(const Frame& req, MsgType type, WireStatus status) {
  Frame resp;
  resp.type = type;
  resp.seq = req.seq;
  resp.stripe = req.stripe;
  resp.shard = req.shard;
  resp.status = status;
  resp.geom = req.geom;
  return resp;
}

bool ValidGeomFrame(const Frame& req) {
  return req.geom.valid() &&
         req.geom.block_size <= kMaxWireBlock;
}

}  // namespace

Node::Node(NodeConfig cfg, LoopbackTransport* transport)
    : cfg_(std::move(cfg)), transport_(transport) {
  svc::StripeService::Config scfg;
  scfg.queue_capacity = cfg_.service_queue;
  scfg.pool_threads = cfg_.service_threads;
  service_ = std::make_unique<svc::StripeService>(std::move(scfg));
  if (!cfg_.data_dir.empty()) LoadDir();
  if (transport_ != nullptr) {
    transport_->register_handler(
        cfg_.id, [this](const Frame& req, Frame* resp) {
          return handle(req, resp);
        });
  }
}

Node::~Node() {
  if (transport_ != nullptr) transport_->unregister_handler(cfg_.id);
  service_->shutdown(svc::StripeService::Drain::kDrain);
}

std::filesystem::path Node::ChunkPath(std::uint64_t stripe,
                                      std::uint32_t shard) const {
  char name[64];
  std::snprintf(name, sizeof(name), "s%016" PRIx64 "_%04u.chunk", stripe,
                shard);
  return cfg_.data_dir / name;
}

void Node::LoadDir() {
  std::error_code ec;
  std::filesystem::create_directories(cfg_.data_dir, ec);
  for (const auto& entry :
       std::filesystem::directory_iterator(cfg_.data_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::uint64_t stripe = 0;
    std::uint32_t shard = 0;
    const std::string name = entry.path().filename().string();
    if (std::sscanf(name.c_str(), "s%016" SCNx64 "_%04u.chunk", &stripe,
                    &shard) != 2) {
      continue;
    }
    std::vector<std::byte> raw;
    if (const auto st = aio::ReadFileFull(entry.path(), &raw); !st.ok()) {
      continue;  // unreadable => missing; scrub rebuilds it
    }
    if (raw.size() < kTrailerBytes) continue;
    const std::size_t payload = raw.size() - kTrailerBytes;
    const std::uint64_t sum = GetTrailerU64(raw.data() + payload);
    const std::uint64_t magic = GetTrailerU64(raw.data() + payload + 8);
    integrity::ChecksumAlgo algo;
    if (magic == kChunkMagicFnv) {
      algo = integrity::ChecksumAlgo::kFnv1a;
    } else if (magic == kChunkMagicCrc) {
      algo = integrity::ChecksumAlgo::kCrc32c;
    } else {
      continue;  // torn trailer / foreign file
    }
    integrity::Metrics::Get().verify("cluster");
    if (ChunkSum(algo, raw.data(), payload) != sum) {
      integrity::Metrics::Get().corrupt("cluster");
      continue;  // bit rot
    }
    raw.resize(payload);
    std::lock_guard<std::mutex> lk(mu_);
    chunks_[{stripe, shard}] = Chunk{std::move(raw), sum, algo};
  }
}

bool Node::PersistChunk(std::uint64_t stripe, std::uint32_t shard,
                        const Chunk& c) const {
  if (cfg_.data_dir.empty()) return true;
  std::vector<std::byte> out = c.bytes;
  PutTrailerU64(&out, c.sum);
  PutTrailerU64(&out, c.algo == integrity::ChecksumAlgo::kFnv1a
                          ? kChunkMagicFnv
                          : kChunkMagicCrc);
  aio::Transfer xfer(aio::SelectBackend(aio::ModeFromEnv()));
  return aio::WriteFileDurable(xfer, ChunkPath(stripe, shard), out).ok();
}

bool Node::PutChunk(std::uint64_t stripe, std::uint32_t shard,
                    std::vector<std::byte> bytes) {
  Chunk c;
  c.algo = integrity::kDefaultAlgo;
  c.sum = ChunkSum(c.algo, bytes.data(), bytes.size());
  c.bytes = std::move(bytes);
  const bool persisted = PersistChunk(stripe, shard, c);
  std::lock_guard<std::mutex> lk(mu_);
  chunks_[{stripe, shard}] = std::move(c);
  return persisted;
}

WireStatus Node::FetchChunk(std::uint64_t stripe, std::uint32_t shard,
                            std::vector<std::byte>* out) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = chunks_.find({stripe, shard});
  if (it == chunks_.end()) return WireStatus::kNotFound;
  const Chunk& c = it->second;
  integrity::Metrics::Get().verify("cluster");
  if (ChunkSum(c.algo, c.bytes.data(), c.bytes.size()) != c.sum) {
    integrity::Metrics::Get().corrupt("cluster");
    return WireStatus::kCorrupt;
  }
  *out = c.bytes;
  return WireStatus::kOk;
}

std::size_t Node::chunk_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return chunks_.size();
}

bool Node::has_chunk(std::uint64_t stripe, std::uint32_t shard) const {
  std::lock_guard<std::mutex> lk(mu_);
  return chunks_.count({stripe, shard}) != 0;
}

bool Node::get_chunk(std::uint64_t stripe, std::uint32_t shard,
                     std::vector<std::byte>* out) const {
  return FetchChunk(stripe, shard, out) == WireStatus::kOk;
}

bool Node::corrupt_chunk(std::uint64_t stripe, std::uint32_t shard) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = chunks_.find({stripe, shard});
  if (it == chunks_.end() || it->second.bytes.empty()) return false;
  it->second.bytes[0] ^= std::byte{0xff};
  // The stored checksum stays at its pre-flip value, so FetchChunk
  // reports kCorrupt — and the persisted trailer (written from that
  // same stale sum) fails verification on reload too.
  if (!cfg_.data_dir.empty()) PersistChunk(stripe, shard, it->second);
  return true;
}

bool Node::drop_chunk(std::uint64_t stripe, std::uint32_t shard) {
  std::lock_guard<std::mutex> lk(mu_);
  if (chunks_.erase({stripe, shard}) == 0) return false;
  if (!cfg_.data_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove(ChunkPath(stripe, shard), ec);
  }
  return true;
}

bool Node::EncodeStripe(const Geometry& geom,
                        const std::vector<const std::byte*>& data,
                        const std::vector<std::byte*>& parity) {
  const ec::Codec& codec = codecs_.get(geom);
  svc::EncodeRequest req;
  req.shape = {geom.k, geom.global + geom.local, geom.block_size};
  req.data = data;
  req.parity = parity;
  req.codec = &codec;
  auto fut = service_->submit(std::move(req));
  const svc::Result r = fut.get();
  if (r.ok()) return true;
  if (!svc::IsRejection(r.status)) return false;
  // Saturated service: shed to the serial path rather than fail.
  codec.encode(geom.block_size, std::span<const std::byte* const>(data),
               std::span<std::byte* const>(parity));
  return true;
}

WireStatus Node::FetchRemote(const Frame& ctx, std::uint32_t shard,
                             std::vector<std::byte>* out) {
  if (shard >= ctx.placement.size()) return WireStatus::kBadRequest;
  const NodeId home = ctx.placement[shard];
  if (home == cfg_.id) return FetchChunk(ctx.stripe, shard, out);
  if (transport_ == nullptr) return WireStatus::kNotFound;
  return ReadChunk(*transport_, cfg_.id, home, ctx.stripe, shard, ctx.geom,
                   out);
}

bool Node::StoreTo(NodeId dest, std::uint64_t stripe, std::uint32_t shard,
                   const Geometry& geom, std::vector<std::byte> bytes) {
  if (dest == cfg_.id) return PutChunk(stripe, shard, std::move(bytes));
  return transport_ != nullptr &&
         StoreChunk(*transport_, cfg_.id, dest, stripe, shard, geom,
                    std::move(bytes));
}

WireStatus Node::GroupXor(const Frame& req, std::vector<std::byte>* out) {
  const Geometry& geom = req.geom;
  if (!ValidGeomFrame(req) || req.shard >= geom.total_shards() ||
      req.placement.size() != geom.total_shards()) {
    return WireStatus::kBadRequest;
  }
  const std::uint32_t target = req.shard;
  const int group = geom.group_of(target);
  if (group < 0) return WireStatus::kNeedGlobal;
  const std::size_t bs = geom.block_size;
  std::vector<std::byte> acc;
  for (const std::uint32_t member :
       geom.group_members(static_cast<std::uint32_t>(group))) {
    if (member == target) continue;
    std::vector<std::byte> chunk;
    if (FetchRemote(req, member, &chunk) != WireStatus::kOk ||
        chunk.size() != bs) {
      return WireStatus::kNeedGlobal;
    }
    // The first member seeds the accumulator; the rest XOR into it.
    if (acc.empty()) {
      acc = std::move(chunk);
    } else {
      gf::xor_acc(chunk.data(), acc.data(), bs);
    }
  }
  // A group whose only member is the target XORs to zero.
  if (acc.empty()) acc.assign(bs, std::byte{0});
  *out = std::move(acc);
  return WireStatus::kOk;
}

Frame Node::HandleStore(const Frame& req) {
  if (req.blocks.size() != 1 ||
      req.blocks[0].bytes.size() != req.geom.block_size) {
    return MakeResp(req, MsgType::kStoreResp, WireStatus::kBadRequest);
  }
  const bool ok =
      PutChunk(req.stripe, req.blocks[0].index, req.blocks[0].bytes);
  return MakeResp(req, MsgType::kStoreResp,
                  ok ? WireStatus::kOk : WireStatus::kStoreFailed);
}

Frame Node::HandleRead(const Frame& req) {
  std::vector<std::byte> bytes;
  const WireStatus st = FetchChunk(req.stripe, req.shard, &bytes);
  Frame resp = MakeResp(req, MsgType::kReadResp, st);
  if (st == WireStatus::kOk) {
    resp.blocks.push_back({req.shard, std::move(bytes)});
  }
  return resp;
}

Frame Node::HandleEncode(const Frame& req) {
  const Geometry& geom = req.geom;
  if (!ValidGeomFrame(req) ||
      req.placement.size() != geom.total_shards() ||
      req.blocks.size() != geom.k) {
    return MakeResp(req, MsgType::kEncodeResp, WireStatus::kBadRequest);
  }
  std::vector<const std::byte*> data(geom.k, nullptr);
  for (const Blob& b : req.blocks) {
    if (b.index >= geom.k || b.bytes.size() != geom.block_size ||
        data[b.index] != nullptr) {
      return MakeResp(req, MsgType::kEncodeResp, WireStatus::kBadRequest);
    }
    data[b.index] = b.bytes.data();
  }
  for (const std::byte* p : data) {
    if (p == nullptr) {
      return MakeResp(req, MsgType::kEncodeResp, WireStatus::kBadRequest);
    }
  }

  const std::uint32_t parities = geom.global + geom.local;
  std::vector<std::vector<std::byte>> parity_bufs(parities);
  std::vector<std::byte*> parity(parities);
  for (std::uint32_t j = 0; j < parities; ++j) {
    parity_bufs[j].assign(geom.block_size, std::byte{0});
    parity[j] = parity_bufs[j].data();
  }
  if (!EncodeStripe(geom, data, parity)) {
    return MakeResp(req, MsgType::kEncodeResp, WireStatus::kBadRequest);
  }

  // Fan the k + m chunks out to their homes (self included). Failures
  // are reported — with their payloads — so the coordinator can retry
  // the stores directly instead of re-encoding.
  Frame resp = MakeResp(req, MsgType::kEncodeResp, WireStatus::kOk);
  for (std::uint32_t j = 0; j < geom.total_shards(); ++j) {
    const std::byte* bytes = j < geom.k ? data[j] : parity[j - geom.k];
    std::vector<std::byte> payload(bytes, bytes + geom.block_size);
    if (!StoreTo(req.placement[j], req.stripe, j, geom, payload)) {
      resp.status = WireStatus::kStoreFailed;
      resp.placement.push_back(j);  // failed shard indices
      resp.blocks.push_back({j, std::move(payload)});
    }
  }
  return resp;
}

Frame Node::HandleDegradedRead(const Frame& req) {
  // This RPC is the LOCAL path only: a group member reconstructs the
  // target from its group. Anything needing the global parities is the
  // coordinator's job (kNeedGlobal), so the scope accounting — and the
  // locality invariant the chaos tests check — stays honest.
  std::vector<std::byte> acc;
  const WireStatus st = GroupXor(req, &acc);
  Frame resp = MakeResp(req, MsgType::kDegradedReadResp, st);
  if (st == WireStatus::kOk) {
    resp.aux = 0;  // local scope
    resp.blocks.push_back({req.shard, std::move(acc)});
  }
  return resp;
}

Frame Node::HandleRepair(const Frame& req) {
  // Local-only too: rebuild from the group and store to `aux`. A
  // kNeedGlobal answer stores nothing; the coordinator then rebuilds
  // from k survivors itself.
  std::vector<std::byte> rebuilt;
  WireStatus st = GroupXor(req, &rebuilt);
  if (st == WireStatus::kOk &&
      !StoreTo(static_cast<NodeId>(req.aux), req.stripe, req.shard, req.geom,
               std::move(rebuilt))) {
    st = WireStatus::kStoreFailed;
  }
  return MakeResp(req, MsgType::kRepairResp, st);
}

Frame Node::HandleHeartbeat(const Frame& req) {
  Frame resp = MakeResp(req, MsgType::kHeartbeatResp, WireStatus::kOk);
  resp.aux = chunk_count();
  return resp;
}

int Node::handle(const Frame& req, Frame* resp) {
  switch (req.type) {
    case MsgType::kStore:
      *resp = HandleStore(req);
      return 0;
    case MsgType::kRead:
      *resp = HandleRead(req);
      return 0;
    case MsgType::kEncode:
      *resp = HandleEncode(req);
      return 0;
    case MsgType::kDegradedRead:
      *resp = HandleDegradedRead(req);
      return 0;
    case MsgType::kRepair:
      *resp = HandleRepair(req);
      return 0;
    case MsgType::kHeartbeat:
      *resp = HandleHeartbeat(req);
      return 0;
    default:
      // Response-typed frames are not requests.
      *resp = MakeResp(req, MsgType::kHeartbeatResp, WireStatus::kBadRequest);
      return 0;
  }
}

}  // namespace cluster
