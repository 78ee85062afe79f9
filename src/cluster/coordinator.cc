#include "cluster/coordinator.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "integrity/checksum.h"
#include "obs/metrics.h"

namespace cluster {

namespace {

obs::Counter& DegradedCounter(bool local) {
  static obs::Counter& l = obs::Registry::Global().counter(
      "dialga_cluster_degraded_read_total", {{"scope", "local"}});
  static obs::Counter& g = obs::Registry::Global().counter(
      "dialga_cluster_degraded_read_total", {{"scope", "global"}});
  return local ? l : g;
}

obs::Counter& RepairCounter(bool scrub) {
  static obs::Counter& s = obs::Registry::Global().counter(
      "dialga_cluster_repair_total", {{"kind", "scrub"}});
  static obs::Counter& r = obs::Registry::Global().counter(
      "dialga_cluster_repair_total", {{"kind", "rebuild"}});
  return scrub ? s : r;
}

obs::Counter& RepairBytes(bool scrub) {
  static obs::Counter& s = obs::Registry::Global().counter(
      "dialga_cluster_repair_bytes_total", {{"kind", "scrub"}});
  static obs::Counter& r = obs::Registry::Global().counter(
      "dialga_cluster_repair_bytes_total", {{"kind", "rebuild"}});
  return scrub ? s : r;
}

obs::Counter& ThrottleWaits(bool scrub) {
  static obs::Counter& s = obs::Registry::Global().counter(
      "dialga_cluster_throttle_waits_total", {{"kind", "scrub"}});
  static obs::Counter& r = obs::Registry::Global().counter(
      "dialga_cluster_throttle_waits_total", {{"kind", "rebuild"}});
  return scrub ? s : r;
}

obs::Counter& QuorumLoss() {
  static obs::Counter& c = obs::Registry::Global().counter(
      "dialga_cluster_quorum_loss_total", {});
  return c;
}

obs::Counter& RebalanceMoves() {
  static obs::Counter& c = obs::Registry::Global().counter(
      "dialga_cluster_rebalance_total", {});
  return c;
}

}  // namespace

const char* to_string(OpResult::Code c) {
  switch (c) {
    case OpResult::Code::kOk: return "ok";
    case OpResult::Code::kDegraded: return "degraded";
    case OpResult::Code::kQuorumLoss: return "quorum-loss";
    case OpResult::Code::kTransport: return "transport";
    case OpResult::Code::kInvalid: return "invalid";
  }
  return "?";
}

Coordinator::Coordinator(CoordinatorConfig cfg, Placement* placement,
                         Transport* transport)
    : cfg_(std::move(cfg)),
      placement_(placement),
      transport_(transport),
      scrub_bucket_(cfg_.scrub_rate_bps, cfg_.rate_burst_bytes, cfg_.time),
      rebuild_bucket_(cfg_.rebuild_rate_bps, cfg_.rate_burst_bytes,
                      cfg_.time) {
  RegisterClusterMetrics();
}

int Coordinator::Call(NodeId to, const Frame& req, Frame* resp) {
  return transport_->call(kClientId, to, req, resp);
}

bool Coordinator::NodeUp(NodeId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return down_.count(id) == 0;
}

void Coordinator::track(std::uint64_t stripe) {
  std::lock_guard<std::mutex> lk(mu_);
  acked_.insert(stripe);
}

std::size_t Coordinator::tracked() const {
  std::lock_guard<std::mutex> lk(mu_);
  return acked_.size();
}

OpResult Coordinator::write_stripe(std::uint64_t stripe,
                                   std::span<const std::byte* const> data) {
  const Geometry& geom = cfg_.geom;
  if (!geom.valid() || data.size() != geom.k) {
    return {OpResult::Code::kInvalid, "need k data blocks"};
  }
  const std::vector<NodeId> table = placement_->table(stripe, geom);
  if (table.empty()) {
    return {OpResult::Code::kInvalid, "empty membership"};
  }

  Frame req;
  req.type = MsgType::kEncode;
  req.stripe = stripe;
  req.geom = geom;
  req.placement = table;
  for (std::uint32_t i = 0; i < geom.k; ++i) {
    req.blocks.push_back(
        {i, std::vector<std::byte>(data[i], data[i] + geom.block_size)});
  }

  // Primary = first reachable home in table order; every candidate is
  // tried before giving up, so a dead shard-0 home does not fail the
  // write.
  Frame resp;
  bool delivered = false;
  for (const NodeId candidate : table) {
    if (!NodeUp(candidate)) continue;
    if (Call(candidate, req, &resp) == 0) {
      delivered = true;
      break;
    }
  }
  if (!delivered) {
    return {OpResult::Code::kTransport, "no reachable primary"};
  }
  if (resp.status == WireStatus::kBadRequest) {
    return {OpResult::Code::kInvalid, "primary rejected encode"};
  }

  // The primary reports the chunks it could not place (with payloads);
  // retry them directly before acknowledging. An unplaced chunk means
  // the stripe is NOT acknowledged.
  if (resp.status == WireStatus::kStoreFailed) {
    for (std::size_t i = 0; i < resp.placement.size(); ++i) {
      const std::uint32_t shard = resp.placement[i];
      if (shard >= table.size() || i >= resp.blocks.size()) {
        return {OpResult::Code::kTransport, "malformed encode response"};
      }
      bool stored = false;
      for (std::size_t attempt = 0;
           attempt <= cfg_.store_retry.max_retries && !stored; ++attempt) {
        if (attempt > 0) {
          cfg_.time.sleep_ns(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  cfg_.store_retry.delay(attempt - 1))
                  .count()));
        }
        stored = StoreChunk(*transport_, kClientId, table[shard], stripe,
                            shard, geom, resp.blocks[i].bytes);
      }
      if (!stored) {
        return {OpResult::Code::kTransport,
                "chunk " + std::to_string(shard) + " unplaced"};
      }
    }
  }
  track(stripe);
  return {};
}

OpResult Coordinator::GlobalReconstruct(std::uint64_t stripe,
                                        std::uint32_t shard,
                                        const std::vector<NodeId>& table,
                                        std::vector<std::byte>* out) {
  const Geometry& geom = cfg_.geom;
  const std::uint32_t total = geom.total_shards();
  // Survivors in index order (data, global parity, local parity),
  // stopping at k. A chunk whose generator row depends on the ones
  // already fetched is passed over unfetched (a local parity beside its
  // whole group adds nothing), and one that is unreachable, missing or
  // corrupt is skipped for the next. The fetched rows are then a greedy
  // basis of the available ones, so a stripe any k survivors decode is
  // decoded, and the normal case still reads exactly k chunks.
  const ec::Codec& codec = codecs_.get(geom);
  std::vector<std::vector<std::byte>> chunks(total);
  std::vector<std::byte*> blocks(total, nullptr);
  std::vector<std::size_t> present;
  present.reserve(geom.k);
  for (std::uint32_t j = 0; j < total && present.size() < geom.k; ++j) {
    if (j == shard) continue;
    present.push_back(j);
    const bool adds_rank = codec.independent(present);
    present.pop_back();
    if (!adds_rank || !NodeUp(table[j]) ||
        ReadChunk(*transport_, kClientId, table[j], stripe, j, geom,
                  &chunks[j]) != WireStatus::kOk) {
      continue;
    }
    blocks[j] = chunks[j].data();
    present.push_back(j);
  }
  if (present.size() < geom.k) {
    QuorumLoss().inc();
    return {OpResult::Code::kQuorumLoss,
            std::to_string(present.size()) + " of " +
                std::to_string(geom.k) + " required survivors"};
  }
  out->resize(geom.block_size);
  blocks[shard] = out->data();
  if (!codec.reconstruct(geom.block_size,
                         std::span<std::byte* const>(blocks),
                         std::span<const std::size_t>(present), shard)) {
    QuorumLoss().inc();
    return {OpResult::Code::kQuorumLoss, "decode failed"};
  }
  return {OpResult::Code::kDegraded, "global reconstruction"};
}

bool Coordinator::AskGroup(MsgType type, std::uint64_t stripe,
                           std::uint32_t shard,
                           const std::vector<NodeId>& table,
                           std::uint64_t aux, Frame* resp) {
  const Geometry& geom = cfg_.geom;
  // The helper needs every other member, so when one of them is
  // already known down the RPC could only answer kNeedGlobal: send
  // nothing.
  const int group = geom.group_of(shard);
  if (group < 0) return false;
  const std::vector<std::uint32_t> members =
      geom.group_members(static_cast<std::uint32_t>(group));
  if (!std::all_of(members.begin(), members.end(), [&](std::uint32_t m) {
        return m == shard || NodeUp(table[m]);
      })) {
    return false;
  }
  Frame req;
  req.type = type;
  req.stripe = stripe;
  req.shard = shard;
  req.aux = aux;
  req.geom = geom;
  req.placement = table;
  for (const std::uint32_t member : members) {
    if (member == shard) continue;
    const NodeId helper = table[member];
    if (!NodeUp(helper)) continue;
    // A member shares the target's home only when the membership is
    // smaller than the stripe. A degraded read's target home just
    // failed its read, so such a member would likely fail too. A
    // repair's target home is up only on a scrub, where it answered
    // kNotFound/kCorrupt for the target chunk alone, so its other
    // chunks serve as well as any member's.
    if (type == MsgType::kDegradedRead && helper == table[shard]) continue;
    if (Call(helper, req, resp) != 0) continue;
    // The first answer decides: anything but kOk (kNeedGlobal) means
    // the group cannot help.
    return resp->status == WireStatus::kOk;
  }
  return false;
}

OpResult Coordinator::DegradedRead(std::uint64_t stripe, std::uint32_t shard,
                                   const std::vector<NodeId>& table,
                                   std::vector<std::byte>* out) {
  // Local first: a surviving member of the target's group XORs the
  // group — group_size reads inside one failure domain, no global
  // parity traffic.
  Frame resp;
  if (AskGroup(MsgType::kDegradedRead, stripe, shard, table, 0, &resp) &&
      resp.blocks.size() == 1 &&
      resp.blocks[0].bytes.size() == cfg_.geom.block_size) {
    DegradedCounter(true).inc();
    *out = std::move(resp.blocks[0].bytes);
    return {OpResult::Code::kDegraded, "local group reconstruction"};
  }
  const OpResult r = GlobalReconstruct(stripe, shard, table, out);
  if (r.ok()) DegradedCounter(false).inc();
  return r;
}

void Coordinator::MaybeReadRepair(std::uint64_t stripe, std::uint32_t shard,
                                  const std::vector<NodeId>& table,
                                  const std::vector<std::byte>& bytes) {
  if (!cfg_.read_repair) return;
  if (shard >= table.size() || !NodeUp(table[shard])) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (quarantined_.count(stripe) != 0) return;  // scrub's job now
  }
  auto& im = integrity::Metrics::Get();
  const bool stored = StoreChunk(*transport_, kClientId, table[shard], stripe,
                                 shard, cfg_.geom, bytes);
  im.heal("cluster", stored);
  std::lock_guard<std::mutex> lk(mu_);
  if (stored) {
    heal_attempts_.erase(stripe);
    return;
  }
  if (++heal_attempts_[stripe] >= cfg_.heal_retry_cap) {
    quarantined_.insert(stripe);
    im.quarantine("cluster");
  }
}

std::size_t Coordinator::quarantined_stripes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return quarantined_.size();
}

OpResult Coordinator::read_block(std::uint64_t stripe, std::uint32_t shard,
                                 std::vector<std::byte>* out) {
  const Geometry& geom = cfg_.geom;
  if (!geom.valid() || shard >= geom.total_shards()) {
    return {OpResult::Code::kInvalid, "shard out of range"};
  }
  const std::vector<NodeId> table = placement_->table(stripe, geom);
  if (table.empty()) return {OpResult::Code::kInvalid, "empty membership"};
  if (NodeUp(table[shard]) &&
      ReadChunk(*transport_, kClientId, table[shard], stripe, shard, geom,
                out) == WireStatus::kOk) {
    return {};
  }
  const OpResult r = DegradedRead(stripe, shard, table, out);
  // The degraded bytes are codec-verified output; if the home is up
  // (its chunk was corrupt or dropped, not unreachable), reseat them
  // so the next read takes the healthy path again.
  if (r.ok()) MaybeReadRepair(stripe, shard, table, *out);
  return r;
}

OpResult Coordinator::read_stripe(std::uint64_t stripe,
                                  std::span<std::byte* const> out) {
  const Geometry& geom = cfg_.geom;
  if (out.size() != geom.k) {
    return {OpResult::Code::kInvalid, "need k output blocks"};
  }
  OpResult worst;
  for (std::uint32_t i = 0; i < geom.k; ++i) {
    std::vector<std::byte> chunk;
    const OpResult r = read_block(stripe, i, &chunk);
    if (!r.ok()) return r;
    std::copy(chunk.begin(), chunk.end(), out[i]);
    if (r.code == OpResult::Code::kDegraded) worst = r;
  }
  return worst;
}

HeartbeatReport Coordinator::heartbeat() {
  HeartbeatReport report;
  Frame req;
  req.type = MsgType::kHeartbeat;
  req.geom = cfg_.geom;
  for (const NodeInfo& n : placement_->nodes()) {
    Frame resp;
    const bool up = Call(n.id, req, &resp) == 0 &&
                    resp.status == WireStatus::kOk;
    std::lock_guard<std::mutex> lk(mu_);
    if (up) {
      down_.erase(n.id);
      report.up.push_back(n.id);
    } else {
      down_.insert(n.id);
      report.down.push_back(n.id);
    }
  }
  obs::Registry::Global()
      .gauge("dialga_cluster_nodes_up", {})
      .set(static_cast<double>(report.up.size()));
  return report;
}

void Coordinator::report_node_pressure(NodeId node, bool contended) {
  if (cfg_.governor == nullptr) return;
  cfg_.governor->report_pressure(node, contended);
}

void Coordinator::ApplyPressure() {
  if (cfg_.governor == nullptr) return;
  cfg_.governor->poll();
  const double scale = cfg_.governor->rate_scale();
  scrub_bucket_.set_rate_scale(scale);
  rebuild_bucket_.set_rate_scale(scale);
}

bool Coordinator::RepairChunk(std::uint64_t stripe, std::uint32_t shard,
                              const std::vector<NodeId>& table, NodeId dest,
                              RepairKind kind) {
  const Geometry& geom = cfg_.geom;
  const bool scrub = kind == RepairKind::kScrub;
  ApplyPressure();
  const std::uint64_t waits =
      (scrub ? scrub_bucket_ : rebuild_bucket_).throttle(geom.block_size);
  if (waits > 0) ThrottleWaits(scrub).inc(waits);

  // Prefer a surviving group member doing the repair next to the data
  // (one kRepair RPC; the member reads its group, XORs, stores to
  // dest). Otherwise the coordinator rebuilds from k survivors.
  Frame resp;
  bool done = AskGroup(MsgType::kRepair, stripe, shard, table, dest, &resp);
  if (!done) {
    std::vector<std::byte> rebuilt;
    done = GlobalReconstruct(stripe, shard, table, &rebuilt).ok() &&
           StoreChunk(*transport_, kClientId, dest, stripe, shard, geom,
                      std::move(rebuilt));
  }
  if (!done) return false;
  RepairCounter(scrub).inc();
  RepairBytes(scrub).inc(geom.block_size);
  return true;
}

ScrubReport Coordinator::scrub_pass() {
  const Geometry& geom = cfg_.geom;
  ScrubReport report;
  std::vector<std::uint64_t> stripes;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stripes.assign(acked_.begin(), acked_.end());
  }
  report.stripes = stripes.size();
  for (const std::uint64_t stripe : stripes) {
    const std::vector<NodeId> table = placement_->table(stripe, geom);
    bool converged = true;  // every chunk verified or repaired
    for (std::uint32_t j = 0; j < geom.total_shards(); ++j) {
      if (j >= table.size()) break;
      if (!NodeUp(table[j])) {
        ++report.unreachable;  // rebuild's job, not scrub's
        converged = false;
        continue;
      }
      ApplyPressure();
      const std::uint64_t waits = scrub_bucket_.throttle(geom.block_size);
      if (waits > 0) ThrottleWaits(true).inc(waits);
      ++report.chunks_checked;
      std::vector<std::byte> chunk;
      const WireStatus st = ReadChunk(*transport_, kClientId, table[j], stripe,
                                      j, geom, &chunk);
      if (st == WireStatus::kOk) continue;
      if (st == WireStatus::kCorrupt) ++report.corrupt;
      if (RepairChunk(stripe, j, table, table[j], RepairKind::kScrub)) {
        ++report.repaired;
      } else {
        ++report.unrecoverable;
        converged = false;
      }
    }
    if (converged) {
      // A stripe scrub fully verified (or repaired) is rehabilitated:
      // read-repair write-backs may run again.
      std::lock_guard<std::mutex> lk(mu_);
      heal_attempts_.erase(stripe);
      if (quarantined_.erase(stripe) != 0) ++report.stripes_unquarantined;
    }
  }
  report.throttle_waits = scrub_bucket_.waits() + rebuild_bucket_.waits();
  return report;
}

RebalanceReport Coordinator::Rebalance(
    const std::vector<std::pair<std::uint64_t, std::vector<NodeId>>>&
        old_tables) {
  const Geometry& geom = cfg_.geom;
  RebalanceReport report;
  for (const auto& [stripe, old_table] : old_tables) {
    const std::vector<NodeId> new_table = placement_->table(stripe, geom);
    for (std::uint32_t j = 0; j < geom.total_shards(); ++j) {
      if (j >= new_table.size() || j >= old_table.size()) break;
      if (new_table[j] == old_table[j]) continue;  // minimal movement
      ApplyPressure();
      const std::uint64_t waits = rebuild_bucket_.throttle(geom.block_size);
      if (waits > 0) ThrottleWaits(false).inc(waits);

      // Cheap path: the old home still answers — plain copy, no
      // reconstruction math.
      bool done = false;
      std::vector<std::byte> chunk;
      if (NodeUp(old_table[j]) &&
          ReadChunk(*transport_, kClientId, old_table[j], stripe, j, geom,
                    &chunk) == WireStatus::kOk) {
        done = StoreChunk(*transport_, kClientId, new_table[j], stripe, j,
                          geom, std::move(chunk));
        if (done) {
          ++report.moved;
          RepairBytes(false).inc(geom.block_size);
        }
      }
      if (!done) {
        // Reconstruct from the OLD table: that is where the surviving
        // chunks still live mid-pass (a copy leaves the old replica in
        // place, and shards not yet rebalanced have not moved at all).
        // Fetching via the new table would count every not-yet-moved
        // shard as an erasure and burn quorum for nothing.
        if (RepairChunk(stripe, j, old_table, new_table[j],
                        RepairKind::kRebuild)) {
          ++report.rebuilt;
        } else {
          ++report.failed;
          continue;
        }
      }
      RebalanceMoves().inc();
    }
  }
  report.throttle_waits = rebuild_bucket_.waits();
  return report;
}

RebalanceReport Coordinator::remove_node(NodeId dead) {
  std::vector<std::pair<std::uint64_t, std::vector<NodeId>>> old_tables;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const std::uint64_t s : acked_) {
      old_tables.emplace_back(s, placement_->table(s, cfg_.geom));
    }
    down_.insert(dead);
  }
  if (!placement_->remove_node(dead)) return {};
  return Rebalance(old_tables);
}

RebalanceReport Coordinator::add_node(const NodeInfo& node) {
  std::vector<std::pair<std::uint64_t, std::vector<NodeId>>> old_tables;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const std::uint64_t s : acked_) {
      old_tables.emplace_back(s, placement_->table(s, cfg_.geom));
    }
    down_.erase(node.id);
  }
  if (!placement_->add_node(node)) return {};
  return Rebalance(old_tables);
}

}  // namespace cluster
