// cluster_degraded: an in-memory cluster::LocalCluster (no data_root,
// so aio is bypassed) of 8 nodes in 4 failure domains, LRC(k=4,
// global=2, local=2), 64 KiB blocks, one service thread per node. The
// measured phase writes seeded stripes with write_stripe, kills one
// seed-chosen node, calls heartbeat() as eccli does, then runs one
// closed-loop client doing read_block on seeded uniform (stripe,
// shard) pairs; reads homed on the dead node are degraded. Every read
// is compared with the benchmark's own copy (data, or parity from a
// plain ec::LrcCodec reference), regenerated off the timed path.
#include <cstring>
#include <memory>
#include <vector>

#include "cluster/local_cluster.h"
#include "cluster/wire.h"
#include "common.h"
#include "ec/isal.h"
#include "ec/lrc.h"
#include "integrity/checksum.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

constexpr std::uint32_t kNodes = 8, kDomains = 4;
constexpr std::uint32_t kK = 4, kGlobal = 2, kLocal = 2;
constexpr std::uint32_t kShards = kK + kGlobal + kLocal;
constexpr std::size_t kBlock = 64 << 10;
constexpr std::uint64_t kWarmStripe = 1ull << 40;
/// Read tails are medians over chunks of this many consecutive reads
/// (about 2 s of degraded reads on a 4-vCPU host), so at least 25 lie
/// beyond a chunk's p99.
constexpr std::size_t kReadChunk = 2500;

const cluster::Geometry kGeom{
    .k = kK, .global = kGlobal, .local = kLocal, .block_size = kBlock};

/// The benchmark's copy of what it wrote, regenerated on demand: data
/// blocks are position-addressed seeded bytes and parity comes from a
/// plain ec::LrcCodec reference over them. Nothing is kept per stripe,
/// so peak RSS is the cluster's. Returned pointers are valid until the
/// next call.
class Dataset {
 public:
  Dataset(std::size_t n, std::uint64_t seed)
      : stripes(n), seed_(seed), buf_(kShards * kBlock),
        ref_(kK, kGlobal, kLocal) {}

  const std::size_t stripes;

  /// Every block of stripe `s`, data then parity.
  std::byte* stripe(std::size_t s) {
    FillData(s);
    std::vector<std::byte*> parity;
    for (std::uint32_t j = kK; j < kShards; ++j) parity.push_back(slot(j));
    ref_.encode(kBlock, data_ptrs(), parity);
    return buf_.data();
  }
  /// The data blocks of stripe `s`.
  std::vector<const std::byte*> data(std::size_t s) {
    FillData(s);
    return data_ptrs();
  }
  /// Expected bytes of one block.
  std::byte* block(std::size_t s, std::uint32_t shard) {
    if (shard >= kK) return stripe(s) + shard * kBlock;
    FillSeeded(seed_ ^ 0xC1, (s * kK + shard) * kBlock,
               std::span(slot(shard), kBlock));
    return slot(shard);
  }

 private:
  std::byte* slot(std::uint32_t shard) { return &buf_[shard * kBlock]; }
  void FillData(std::size_t s) {
    FillSeeded(seed_ ^ 0xC1, s * kK * kBlock, std::span(slot(0), kK * kBlock));
  }
  std::vector<const std::byte*> data_ptrs() {
    std::vector<const std::byte*> v;
    for (std::uint32_t i = 0; i < kK; ++i) v.push_back(slot(i));
    return v;
  }

  std::uint64_t seed_;
  std::vector<std::byte> buf_;
  ec::LrcCodec ref_;
};

/// The objects setup_s times; `warm` is one stripe of data for the
/// first write and read (codecs, node services and the RPC path).
std::unique_ptr<cluster::LocalCluster> MakeCluster(
    const std::vector<const std::byte*>& warm) {
  cluster::LocalClusterConfig cfg;
  cfg.nodes = kNodes;
  cfg.domains = kDomains;
  cfg.geom = kGeom;
  cfg.service_threads = 1;
  auto c = std::make_unique<cluster::LocalCluster>(std::move(cfg));
  c->coordinator().write_stripe(kWarmStripe, warm);
  std::vector<std::byte> out;
  c->coordinator().read_block(kWarmStripe, 0, &out);
  return c;
}

struct Ledger {
  std::vector<double> lat;  ///< seconds, in time order; +inf for failed ops
  double wall = 0;          ///< sum of successful op times
  void add(double s) {
    lat.push_back(s);
    if (s < kFailed) wall += s;
  }
};

struct Phase {
  Ledger write, read, degraded;
  std::size_t dead = 0;
  std::uint64_t bench_degraded = 0;  ///< reads homed on the dead node
  RegSnapshot after_writes, before_reads, after_reads;
};

class Runner {
 public:
  Runner(const Args& args, Dataset& ds, cluster::LocalCluster& c, Report* r,
         SpanLog* spans)
      : args_(args), ds_(ds), c_(c), r_(r), spans_(spans) {}

  /// One read_block, verified; returns its time or +inf.
  double Read(std::uint64_t stripe, std::uint32_t shard, bool degraded) {
    const double t0 = Now();
    const cluster::OpResult res =
        c_.coordinator().read_block(stripe, shard, &out_);
    const double t1 = Now();
    const std::uint64_t op = ++op_;
    spans_->add(op, degraded ? "degraded_read" : "read", nullptr, t0, t1);
    spans_->add(op, "cluster.read_block", degraded ? "degraded_read" : "read",
                t0, t1);
    ++r_->attempted;
    if (!res.ok()) {
      ++r_->failed;
      if (r_->notes.size() < 8) {
        r_->notes.push_back(std::string("read_block failed: ") + res.detail);
      }
      return kFailed;
    }
    std::byte* want = ds_.block(stripe, shard);
    if (args_.corrupt_expected && !flipped_) {
      // The negative control: the first read is checked against its
      // expected block with one byte flipped.
      flipped_ = true;
      want[kBlock / 2] ^= std::byte{1};
    }
    const bool same = out_.size() == kBlock &&
                      std::memcmp(out_.data(), want, kBlock) == 0;
    if (!same) {
      ++r_->failed;
      r_->fail_correctness("read_block returned bytes that differ from the "
                           "written stripe");
    }
    if ((res.code == cluster::OpResult::Code::kDegraded) != degraded) {
      r_->notes.push_back("read_block degraded flag disagrees with placement");
    }
    return t1 - t0;
  }

  Phase Run(double seconds, bool traced, std::uint64_t phase_seed) {
    Phase ph;
    Rng rng(args_.seed ^ phase_seed);
    const double start = Now();
    for (std::size_t s = 0; s < ds_.stripes; ++s) {
      const auto data = ds_.data(s);
      const double t0 = Now();
      const cluster::OpResult res = c_.coordinator().write_stripe(s, data);
      const double t1 = Now();
      spans_->add(++op_, "write", nullptr, t0, t1);
      spans_->add(op_, "cluster.write_stripe", "write", t0, t1);
      ++r_->attempted;
      if (!res.ok()) {
        ++r_->failed;
        r_->notes.push_back(std::string("write_stripe failed: ") + res.detail);
        ph.write.add(kFailed);
      } else {
        ph.write.add(t1 - t0);
      }
    }
    if (traced) ph.after_writes = RegSnapshot::Take();
    ph.dead = rng.below(kNodes);
    c_.kill(ph.dead);
    c_.coordinator().heartbeat();
    dead_id_ = cluster::LocalCluster::id_of(ph.dead);
    tables_.clear();
    for (std::size_t s = 0; s < ds_.stripes; ++s) {
      tables_.push_back(c_.placement().table(s, kGeom));
    }
    if (traced) ph.before_reads = RegSnapshot::Take();
    const double end = start + seconds;
    do {
      for (int i = 0; i < 64; ++i) {
        const std::uint64_t stripe = rng.below(ds_.stripes);
        const auto shard = static_cast<std::uint32_t>(rng.below(kShards));
        const bool degraded = homed_on_dead(stripe, shard);
        ph.bench_degraded += degraded;
        (degraded ? ph.degraded : ph.read).add(Read(stripe, shard, degraded));
      }
    } while (Now() < end);
    if (traced) ph.after_reads = RegSnapshot::Take();
    return ph;
  }

  bool homed_on_dead(std::uint64_t stripe, std::uint32_t shard) const {
    return tables_[stripe][shard] == dead_id_;
  }

 private:
  const Args& args_;
  Dataset& ds_;
  cluster::LocalCluster& c_;
  Report* r_;
  SpanLog* spans_;
  std::vector<std::byte> out_;
  std::uint64_t op_ = 0;
  bool flipped_ = false;
  cluster::NodeId dead_id_ = 0;
  std::vector<std::vector<cluster::NodeId>> tables_;
};

}  // namespace

int RunClusterDegraded(const Args& args, Report* r) {
  Dataset ds(args.tiny ? 32 : 512, args.seed);
  const auto warm = ds.data(0);
  const double c0 = ProcessCpuSeconds();
  const double t0 = Now();
  std::unique_ptr<cluster::LocalCluster> c = MakeCluster(warm);
  if (args.setup_only) {
    r->set("setup_wall_s", Now() - t0, "s");
    r->set("setup_s", ProcessCpuSeconds() - c0, "s");
    return 0;
  }
  SpanLog spans;
  const double secs = args.trace ? args.seconds / 2 : args.seconds;
  const RegSnapshot before = RegSnapshot::Take();
  const CpuTicks ticks0 = ReadCpuTicks();
  const Phase ph = Runner(args, ds, *c, r, &spans).Run(secs, false, 1);
  r->info["cpu_steal_frac"] = std::to_string(StealFrac(ticks0, ReadCpuTicks()));
  const RegSnapshot after = RegSnapshot::Take();
  Fingerprint(r, args.data_dir, before, after);

  // User bytes of one stripe over the median write_stripe time: a host
  // stall slows a minority of writes instead of the whole sum.
  const double write_p50 = Percentile(ph.write.lat, 50);
  const double write_gbps = kK * kBlock / write_p50 / 1e9;
  r->set("write_gbps", write_gbps, "GB/s", ph.write.lat.size());
  r->set("write_p50_us", Percentile(Micros(ph.write.lat), 50), "us",
         ph.write.lat.size());
  r->set("write_p99_us", Percentile(Micros(ph.write.lat), 99), "us",
         ph.write.lat.size());
  auto tails = [&](const char* name, const Ledger& l) {
    const std::string n = name;
    std::vector<double> chunks;
    const std::vector<double> us = Micros(l.lat);
    r->set(n + "_p50_us", ChunkedPercentile(us, kReadChunk, 50, nullptr), "us",
           l.lat.size());
    r->set(n + "_p99_us", ChunkedPercentile(us, kReadChunk, 99, &chunks), "us",
           l.lat.size());
    r->info[n + "_p99_us_per_chunk"] = JoinRounded(chunks);
    r->set(n + "_p95_us", ChunkedPercentile(us, kReadChunk, 95, nullptr), "us",
           l.lat.size());
  };
  tails("read", ph.read);
  tails("degraded_read", ph.degraded);
  r->info["killed_node"] = std::to_string(ph.dead);
  if (!args.trace) return 0;

  // Traced phase on a fresh cluster (the first one has a dead node).
  c = MakeCluster(ds.data(0));
  obs::Tracer::Global().set_capacity(1 << 20);
  obs::Tracer::Global().clear();
  obs::Tracer::Global().set_enabled(true);
  spans.set_enabled(true);
  Runner runner(args, ds, *c, r, &spans);
  const RegSnapshot tb = RegSnapshot::Take();
  const Phase tp = runner.Run(secs, true, 2);
  // Per-class registry deltas from short single-class batches.
  auto batch = [&](bool degraded, Ledger* l) {
    Rng rng(args.seed ^ (degraded ? 0xDE : 0xEA));
    const RegSnapshot b = RegSnapshot::Take();
    while (l->lat.size() < 256) {
      const std::uint64_t stripe = rng.below(ds.stripes);
      const auto shard = static_cast<std::uint32_t>(rng.below(kShards));
      if (runner.homed_on_dead(stripe, shard) != degraded) continue;
      l->add(runner.Read(stripe, shard, degraded));
    }
    return std::make_pair(b, RegSnapshot::Take());
  };
  Ledger healthy_batch, degraded_batch;
  const auto [hb, ha] = batch(false, &healthy_batch);
  const auto [db, da] = batch(true, &degraded_batch);
  const RegSnapshot ta = RegSnapshot::Take();
  obs::Tracer::Global().set_enabled(false);
  spans.set_enabled(false);
  spans.write(args.data_dir / "spans.jsonl");

  // User bytes moved from tb to ta: the writes, the phase's reads and
  // the two 256-read batches.
  const double moved = static_cast<double>(
      tp.write.lat.size() * kK * kBlock +
      (tp.read.lat.size() + tp.degraded.lat.size() + 512) * kBlock);
  RegistryLayerMetrics(r, tb, ta, moved);
  ServiceSpanMetrics(r, "", "");
  const double n_writes = static_cast<double>(ds.stripes);
  r->set("cluster.rpcs_per_write",
         Delta(tb, tp.after_writes, "dialga_cluster_rpc_total") / n_writes,
         "ratio", ds.stripes);
  r->set("cluster.rpcs_per_read",
         Delta(hb, ha, "dialga_cluster_rpc_total") / 256.0, "ratio", 256);
  r->set("cluster.rpcs_per_degraded_read",
         Delta(db, da, "dialga_cluster_rpc_total") / 256.0, "ratio", 256);
  r->set("cluster.rpc_bytes_per_user_byte",
         Delta(tb, ta, "dialga_cluster_rpc_bytes_total") / moved,
         "ratio");
  const double reg_degraded = Delta(tp.before_reads, tp.after_reads,
                                    "dialga_cluster_degraded_read_total");
  r->set("cluster.degraded_reads", reg_degraded, "count", tp.bench_degraded);
  if (static_cast<std::uint64_t>(reg_degraded) != tp.bench_degraded) {
    r->notes.push_back("dialga_cluster_degraded_read_total delta " +
                       std::to_string(reg_degraded) +
                       " != reads homed on the dead node " +
                       std::to_string(tp.bench_degraded));
  }

  // Timed public calls at this workload's shape.
  cluster::Frame f;
  f.type = cluster::MsgType::kReadResp;
  f.geom = kGeom;
  // Stripe 0 as the probes' input: data blocks then reference parity.
  const std::byte* first = ds.stripe(0);
  const std::vector<std::byte> stripe0(first, first + kShards * kBlock);
  f.blocks.push_back({0, std::vector<std::byte>(stripe0.begin(),
                                                stripe0.begin() + kBlock)});
  const double frame_s = TimePerCall(0.2, [&] {
    const std::vector<std::byte> wire = cluster::EncodeFrame(f);
    cluster::Frame back;
    cluster::DecodeFrame(wire, &back);
  });
  r->set("cluster.frame_roundtrip_us", frame_s * 1e6, "us");
  // Framing cost per serialized byte; RPCs range from headers to chunks.
  const double frame_s_per_byte =
      frame_s / static_cast<double>(cluster::EncodeFrame(f).size());
  const double crc_s = TimePerCall(0.2, [&] {
    (void)integrity::Checksum(integrity::ChecksumAlgo::kCrc32c, stripe0.data(),
                              kBlock);
  });
  r->set("integrity.crc32c_gbps", kBlock / crc_s / 1e9, "GB/s");
  const ec::IsalCodec isal(kK, kGlobal);
  const ec::LrcCodec lrc(kK, kGlobal, kLocal);
  std::vector<std::byte> scratch = stripe0;
  std::vector<std::byte*> parity, blocks;
  std::vector<const std::byte*> data;
  for (std::uint32_t i = 0; i < kShards; ++i) {
    blocks.push_back(&scratch[i * kBlock]);
    if (i < kK) data.push_back(stripe0.data() + i * kBlock);
    else parity.push_back(&scratch[i * kBlock]);
  }
  const RegSnapshot kb = RegSnapshot::Take();
  std::size_t calls = 0;
  const double kernel_s = TimePerCall(0.2, [&] {
    isal.encode_with(kBlock, data, std::span(parity).subspan(0, kGlobal),
                     ec::HostKernelOptions{});
    ++calls;
  });
  const double kernel_bytes =
      Delta(kb, RegSnapshot::Take(), "dialga_gf_kernel_bytes_total") /
      static_cast<double>(calls);
  r->set("gf.kernel_gbps", kK * kBlock / kernel_s / 1e9, "GB/s", calls);
  r->set("ec.codec_encode_us",
         TimePerCall(0.2, [&] { lrc.encode(kBlock, data, parity); }) * 1e6,
         "us");
  const std::vector<std::size_t> erased = {1};
  r->set("ec.codec_decode_us",
         TimePerCall(0.2, [&] { lrc.decode(kBlock, blocks, erased); }) * 1e6,
         "us");

  // Attribution per op class: summed op time against the frame,
  // checksum and kernel costs the registry deltas imply; the rest
  // (transport, placement, copies, node dispatch) is the residual.
  auto attribute = [&](const Ledger& l, const RegSnapshot& b,
                       const RegSnapshot& a) {
    std::map<std::string, double> m;
    m["e2e_s"] = l.wall;
    m["cluster.frame_s"] =
        Delta(b, a, "dialga_cluster_rpc_bytes_total") * frame_s_per_byte;
    m["integrity.checksum_s"] =
        Delta(b, a, "dialga_integrity_checksum_bytes_total") * crc_s / kBlock;
    m["gf.kernel_s"] = kernel_bytes > 0
                           ? Delta(b, a, "dialga_gf_kernel_bytes_total") *
                                 kernel_s / kernel_bytes
                           : 0;
    const double layers =
        m["cluster.frame_s"] + m["integrity.checksum_s"] + m["gf.kernel_s"];
    m["residual_s"] = l.wall - layers;
    m["residual_frac"] = l.wall > 0 ? (l.wall - layers) / l.wall : 0;
    return m;
  };
  r->attribution["write"] = attribute(tp.write, tb, tp.after_writes);
  r->attribution["read"] = attribute(healthy_batch, hb, ha);
  r->attribution["degraded_read"] = attribute(degraded_batch, db, da);
  r->set("bench.residual_frac", r->attribution["degraded_read"]["residual_frac"],
         "frac", 256);
  auto mean = [](const Ledger& l) {
    return l.wall / static_cast<double>(l.lat.size());
  };
  r->set("bench.trace_overhead_frac",
         (mean(tp.read) + mean(tp.degraded)) / (mean(ph.read) + mean(ph.degraded)) -
             1.0,
         "frac", tp.read.lat.size() + tp.degraded.lat.size());
  r->info["spans_recorded"] = std::to_string(spans.size());
  return 0;
}

}  // namespace perfbench
