// file_roundtrip: what `eccli encode` / `eccli decode` run. A
// shard::ShardStore over dialga::DialgaCodec RS(8,3) with 64 KiB
// blocks and a default, ungoverned svc::StripeService, aio mode auto.
// Each iteration encodes a seeded file, decodes it, deletes three
// seed-chosen shards (at least one data shard) and decodes again with
// read-repair rewriting them. Every decoded byte is compared with the
// seeded input; the repaired generation must verify clean.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include "aio/datapath.h"
#include "common.h"
#include "dialga/dialga.h"
#include "ec/isal.h"
#include "integrity/checksum.h"
#include "obs/trace.h"
#include "shard/shard_store.h"
#include "svc/stripe_service.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kK = 8, kM = 3, kBlock = 64 << 10;
constexpr std::uint64_t kInputStream = 0xF11E;

struct System {
  std::unique_ptr<dialga::DialgaCodec> codec;
  std::unique_ptr<svc::StripeService> service;
  std::unique_ptr<shard::ShardStore> store;
};

/// One RS(8,3)/64 KiB stripe through the service and back.
double StripeRoundtrip(svc::StripeService& service) {
  static std::vector<std::byte> buf((kK + kM) * kBlock);
  svc::EncodeRequest req;
  req.shape = {kK, kM, kBlock};
  for (std::size_t i = 0; i < kK; ++i) req.data.push_back(&buf[i * kBlock]);
  for (std::size_t j = 0; j < kM; ++j) {
    req.parity.push_back(&buf[(kK + j) * kBlock]);
  }
  const double t0 = Now();
  service.submit(std::move(req)).get();
  return Now() - t0;
}

/// The objects setup_s times, including the first stripe through the
/// service (codec factory, pool start) and the aio backend probe.
System MakeSystem() {
  System s;
  s.codec = std::make_unique<dialga::DialgaCodec>(kK, kM);
  s.service = std::make_unique<svc::StripeService>();
  s.store = std::make_unique<shard::ShardStore>(*s.codec, kBlock);
  s.store->use_service(s.service.get());
  s.store->set_aio_mode(aio::Mode::kAuto);
  StripeRoundtrip(*s.service);
  (void)aio::SelectBackend(aio::Mode::kAuto);
  return s;
}

bool WriteInput(const fs::path& path, std::uint64_t seed, std::size_t size) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::vector<std::byte> chunk(8 << 20);
  bool ok = true;
  for (std::size_t off = 0; off < size && ok; off += chunk.size()) {
    const std::size_t n = std::min(chunk.size(), size - off);
    FillSeeded(kInputStream ^ seed, off, std::span(chunk.data(), n));
    ok = ::pwrite(fd, chunk.data(), n, static_cast<off_t>(off)) ==
         static_cast<ssize_t>(n);
  }
  ok = ok && ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// Compare a decoded file with the seeded input. With `corrupt`, one
/// expected byte is flipped (the negative control).
bool VerifyOutput(const fs::path& path, std::uint64_t seed, std::size_t size,
                  bool corrupt, std::string* why) {
  std::error_code ec;
  if (fs::file_size(path, ec) != size || ec) {
    *why = "decoded size differs from the input";
    return false;
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    *why = "decoded file unreadable";
    return false;
  }
  const std::size_t flip = Mix(seed ^ 0xBAD) % size;
  std::vector<std::byte> got(8 << 20), want(8 << 20);
  bool ok = true;
  for (std::size_t off = 0; off < size && ok; off += got.size()) {
    const std::size_t n = std::min(got.size(), size - off);
    ok = ::pread(fd, got.data(), n, static_cast<off_t>(off)) ==
         static_cast<ssize_t>(n);
    FillSeeded(kInputStream ^ seed, off, std::span(want.data(), n));
    if (corrupt && flip >= off && flip < off + n) want[flip - off] ^= std::byte{1};
    if (ok && std::memcmp(got.data(), want.data(), n) != 0) {
      *why = "decoded bytes differ from the seeded input near offset " +
             std::to_string(off);
      ok = false;
    }
  }
  ::close(fd);
  return ok;
}

std::uint64_t DirBytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

/// Three distinct shard indices, at least one of them a data shard.
std::vector<std::size_t> PickVictims(Rng& rng) {
  std::vector<std::size_t> v;
  v.push_back(rng.below(kK));
  while (v.size() < 3) {
    const std::size_t s = rng.below(kK + kM);
    if (std::find(v.begin(), v.end(), s) == v.end()) v.push_back(s);
  }
  return v;
}

enum OpKind { kEncode = 0, kDecode, kDegraded, kOpKinds };
const char* const kOpNames[kOpKinds] = {"encode_file", "decode_file",
                                        "degraded_decode_file"};

/// Wall time and registry deltas of every op of one kind in a phase.
struct OpLedger {
  std::vector<double> wall;
  double aio_read = 0, aio_write = 0, checksum = 0, kernel = 0;

  void add(double w, const RegSnapshot& b, const RegSnapshot& a) {
    wall.push_back(w);
    aio_read += Delta(b, a, "dialga_aio_bytes_total", "op=read");
    aio_write += Delta(b, a, "dialga_aio_bytes_total", "op=write");
    checksum += Delta(b, a, "dialga_integrity_checksum_bytes_total");
    kernel += Delta(b, a, "dialga_gf_kernel_bytes_total");
  }
};

struct Phase {
  OpLedger ops[kOpKinds];
  std::size_t iterations = 0;
  double stored_ratio = 0;
};

/// Runs iterations until `seconds` have passed (at least one).
Phase RunPhase(const Args& args, System& sys, std::size_t size,
               double seconds, bool traced, std::uint64_t phase_seed,
               SpanLog* spans, Report* r) {
  const fs::path dir = args.data_dir / "shards";
  const fs::path input = args.data_dir / "input.bin";
  const fs::path output = args.data_dir / "decoded.bin";
  Rng rng(args.seed ^ phase_seed);
  Phase ph;
  const double start = Now();
  while (ph.iterations == 0 || Now() - start < seconds) {
    const std::uint64_t op_id = ph.iterations * kOpKinds;
    std::error_code ec;
    fs::remove_all(dir, ec);
    auto timed = [&](OpKind kind, auto&& body) {
      const RegSnapshot b = traced ? RegSnapshot::Take() : RegSnapshot{};
      const double t0 = Now();
      const shard::Status st = body();
      const double t1 = Now();
      const RegSnapshot a = traced ? RegSnapshot::Take() : RegSnapshot{};
      spans->add(op_id + kind, kOpNames[kind], nullptr, t0, t1);
      ++r->attempted;
      if (!st.ok()) {
        ++r->failed;
        r->notes.push_back(std::string(kOpNames[kind]) + " failed: " +
                           st.message());
        ph.ops[kind].wall.push_back(kFailed);
        return false;
      }
      ph.ops[kind].add(t1 - t0, b, a);
      return true;
    };
    auto check = [&](OpKind kind) {
      std::string why;
      const bool ok = VerifyOutput(output, args.seed, size,
                                   args.corrupt_expected, &why);
      if (!ok) {
        ++r->failed;
        r->fail_correctness(std::string(kOpNames[kind]) + ": " + why);
      }
      fs::remove(output, ec);
      return ok;
    };

    if (timed(kEncode, [&] { return sys.store->encode_file(input, dir); })) {
      ph.stored_ratio =
          static_cast<double>(DirBytes(dir)) / static_cast<double>(size);
    }
    if (timed(kDecode, [&] { return sys.store->decode_file(dir, output); })) {
      check(kDecode);
    }
    for (const std::size_t s : PickVictims(rng)) {
      char name[32];
      std::snprintf(name, sizeof name, "shard_%03zu", s);
      if (!fs::remove(dir / name, ec)) {
        r->notes.push_back(std::string("could not delete ") + name);
      }
    }
    if (timed(kDegraded,
              [&] { return sys.store->decode_file(dir, output); }) &&
        check(kDegraded)) {
      // Read-repair must have rewritten the deleted shards.
      if (!sys.store->verify(dir).empty()) {
        ++r->failed;
        r->fail_correctness("read-repair left damaged shards behind");
      }
    }
    ++ph.iterations;
  }
  return ph;
}

double GBps(std::size_t bytes, double s) {
  return s > 0 ? static_cast<double>(bytes) / s / 1e9 : 0.0;
}

/// Timed public calls at this workload's shape: the per-byte costs the
/// attribution multiplies the registry byte deltas by.
struct LayerCosts {
  double kernel_s_per_byte = 0;  ///< per dialga_gf_kernel_bytes_total byte
  double aio_read_s_per_byte = 0;
  double aio_write_s_per_byte = 0;
  double crc_s_per_byte = 0;
};

LayerCosts ProbeLayers(const Args& args, System& sys, std::size_t size,
                       Report* r) {
  LayerCosts c;
  const std::size_t shard_bytes = size / kK;
  // GF kernel alone vs the DIALGA codec at 64 KiB.
  std::vector<std::byte> stripe((kK + kM) * kBlock);
  FillSeeded(args.seed, 0, stripe);
  std::vector<const std::byte*> data;
  std::vector<std::byte*> parity, blocks;
  for (std::size_t i = 0; i < kK + kM; ++i) {
    blocks.push_back(&stripe[i * kBlock]);
    if (i < kK) data.push_back(&stripe[i * kBlock]);
    else parity.push_back(&stripe[i * kBlock]);
  }
  const ec::IsalCodec isal(kK, kM);
  const RegSnapshot kb = RegSnapshot::Take();
  std::size_t calls = 0;
  const double kernel_s = TimePerCall(0.2, [&] {
    isal.encode_with(kBlock, data, parity, ec::HostKernelOptions{});
    ++calls;
  });
  const double kernel_bytes =
      Delta(kb, RegSnapshot::Take(), "dialga_gf_kernel_bytes_total") /
      static_cast<double>(calls);
  c.kernel_s_per_byte = kernel_bytes > 0 ? kernel_s / kernel_bytes : 0;
  r->set("gf.kernel_gbps", GBps(kK * kBlock, kernel_s), "GB/s", calls);
  r->set("ec.codec_encode_us",
         TimePerCall(0.2, [&] { sys.codec->encode(kBlock, data, parity); }) * 1e6,
         "us");
  const std::vector<std::size_t> erasures = {0, 5, kK + 1};
  // Decode rebuilds the erased blocks in place, so repeated calls need
  // no reset between them.
  const double codec_dec = TimePerCall(
      0.2, [&] { sys.codec->decode(kBlock, blocks, erasures); });
  const double isal_dec = TimePerCall(0.2, [&] {
    isal.decode_with(kBlock, blocks, erasures, ec::HostKernelOptions{});
  });
  r->set("ec.codec_decode_us", codec_dec * 1e6, "us");
  r->set("dialga.host_overhead_us", (codec_dec - isal_dec) * 1e6, "us");

  // aio: read the whole input; write one shard-sized file durably.
  aio::Transfer xfer(aio::SelectBackend(aio::Mode::kAuto));
  std::vector<std::byte> big(size);
  std::vector<double> reads, writes;
  for (int i = 0; i < 3; ++i) {
    const double t0 = Now();
    const aio::IoStatus st =
        aio::ReadFileExact(xfer, args.data_dir / "input.bin", big);
    reads.push_back(Now() - t0);
    if (!st.ok()) r->notes.push_back("aio probe read failed: " + st.detail);
  }
  const std::span<const std::byte> shard(big.data(), shard_bytes);
  for (int i = 0; i < 3; ++i) {
    const double t0 = Now();
    const aio::IoStatus st =
        aio::WriteFileDurable(xfer, args.data_dir / "probe.bin", shard);
    writes.push_back(Now() - t0);
    if (!st.ok()) r->notes.push_back("aio probe write failed: " + st.detail);
  }
  std::error_code ec;
  fs::remove(args.data_dir / "probe.bin", ec);
  c.aio_read_s_per_byte = Median(reads) / static_cast<double>(size);
  c.aio_write_s_per_byte = Median(writes) / static_cast<double>(shard_bytes);
  r->set("aio.read_gbps", GBps(size, Median(reads)), "GB/s", reads.size());
  r->set("aio.write_durable_ms", Median(writes) * 1e3, "ms", writes.size());

  const double crc_s = TimePerCall(0.2, [&] {
    (void)integrity::Checksum(integrity::ChecksumAlgo::kCrc32c, big.data(),
                              shard_bytes);
  });
  c.crc_s_per_byte = crc_s / static_cast<double>(shard_bytes);
  r->set("integrity.crc32c_gbps", GBps(shard_bytes, crc_s), "GB/s");

  std::vector<double> idle;
  for (int i = 0; i < 200; ++i) idle.push_back(StripeRoundtrip(*sys.service));
  r->set("svc.idle_roundtrip_us", Median(idle) * 1e6, "us", idle.size());
  return c;
}

/// End-to-end wall of one op kind against the layer self times the
/// probes and registry deltas explain; the residual keeps its sign.
std::map<std::string, double> Attribute(const OpLedger& op,
                                        const LayerCosts& c) {
  std::map<std::string, double> a;
  const double wall = SucceededSum(op.wall);
  a["e2e_s"] = wall;
  a["aio.read_s"] = op.aio_read * c.aio_read_s_per_byte;
  a["aio.write_s"] = op.aio_write * c.aio_write_s_per_byte;
  a["integrity.checksum_s"] = op.checksum * c.crc_s_per_byte;
  a["gf.kernel_s"] = op.kernel * c.kernel_s_per_byte;
  const double layers = a["aio.read_s"] + a["aio.write_s"] +
                        a["integrity.checksum_s"] + a["gf.kernel_s"];
  a["residual_s"] = wall - layers;
  a["residual_frac"] = wall > 0 ? (wall - layers) / wall : 0;
  return a;
}

}  // namespace

int RunFileRoundtrip(const Args& args, Report* r) {
  if (args.setup_only) {
    const double c0 = ProcessCpuSeconds();
    const double t0 = Now();
    const System sys = MakeSystem();
    r->set("setup_wall_s", Now() - t0, "s");
    r->set("setup_s", ProcessCpuSeconds() - c0, "s");
    return 0;
  }
  const std::size_t size = args.tiny ? (4u << 20) : (256u << 20);
  if (!WriteInput(args.data_dir / "input.bin", args.seed, size)) {
    r->notes.push_back("cannot write the seeded input");
    return 1;
  }
  System sys = MakeSystem();
  SpanLog spans;
  const double secs = args.trace ? args.seconds / 2 : args.seconds;
  const RegSnapshot before = RegSnapshot::Take();
  const CpuTicks ticks0 = ReadCpuTicks();
  const Phase ph = RunPhase(args, sys, size, secs, false, 1, &spans, r);
  r->info["cpu_steal_frac"] = std::to_string(StealFrac(ticks0, ReadCpuTicks()));
  const RegSnapshot after = RegSnapshot::Take();
  Fingerprint(r, args.data_dir, before, after);
  auto rates = [&](const OpLedger& op) {
    std::vector<double> g;
    for (const double w : op.wall) g.push_back(GBps(size, w));
    return g;
  };
  const std::size_t n = ph.iterations;
  const auto enc = rates(ph.ops[kEncode]);
  const auto& deg_wall = ph.ops[kDegraded].wall;
  r->set("encode_gbps", Median(enc), "GB/s", n);
  r->set("decode_gbps", Median(rates(ph.ops[kDecode])), "GB/s", n);
  r->set("degraded_decode_gbps", Median(rates(ph.ops[kDegraded])), "GB/s", n);
  r->set("stored_bytes_per_user_byte", ph.stored_ratio, "ratio", n);
  // Cross-workload names: the write op is encode_file, the degraded
  // read is decode_file with three shards gone.
  r->set("write_gbps", Median(enc), "GB/s", n);
  r->set("degraded_read_p50_us", Percentile(Micros(deg_wall), 50), "us", n);
  r->set("degraded_read_p99_us", Percentile(Micros(deg_wall), 99), "us", n);
  r->set("degraded_read_p95_us", Percentile(Micros(deg_wall), 95), "us", n);
  r->info["file_bytes"] = std::to_string(size);
  for (int k = 0; k < kOpKinds; ++k) {
    std::vector<double> ms = ph.ops[k].wall;
    for (double& x : ms) x *= 1e3;
    r->info[std::string(kOpNames[k]) + "_ms"] = JoinRounded(ms);
  }
  r->info["flush_policy"] =
      "library default: temp file, fsync, rename, fsync of the directory";

  if (!args.trace) return 0;
  // Traced phase: stripe spans on, registry deltas per op.
  obs::Tracer::Global().set_capacity(1 << 20);
  obs::Tracer::Global().clear();
  obs::Tracer::Global().set_enabled(true);
  spans.set_enabled(true);
  const RegSnapshot tb = RegSnapshot::Take();
  const Phase tp = RunPhase(args, sys, size, secs, true, 2, &spans, r);
  const RegSnapshot ta = RegSnapshot::Take();
  obs::Tracer::Global().set_enabled(false);
  spans.set_enabled(false);
  spans.write(args.data_dir / "spans.jsonl");

  RegistryLayerMetrics(r, tb, ta,
                       static_cast<double>(size * kOpKinds) *
                           static_cast<double>(tp.iterations));
  ServiceSpanMetrics(r, "", "");
  const LayerCosts costs = ProbeLayers(args, sys, size, r);
  OpLedger all;
  for (int k = 0; k < kOpKinds; ++k) {
    r->attribution[kOpNames[k]] = Attribute(tp.ops[k], costs);
    const OpLedger& o = tp.ops[k];
    all.wall.insert(all.wall.end(), o.wall.begin(), o.wall.end());
    all.aio_read += o.aio_read;
    all.aio_write += o.aio_write;
    all.checksum += o.checksum;
    all.kernel += o.kernel;
  }
  r->attribution["all"] = Attribute(all, costs);
  r->set("shard.encode_residual_frac",
         r->attribution["encode_file"]["residual_frac"], "frac",
         tp.iterations);
  r->set("shard.decode_residual_frac",
         r->attribution["decode_file"]["residual_frac"], "frac",
         tp.iterations);
  r->set("bench.residual_frac", r->attribution["all"]["residual_frac"],
         "frac", tp.iterations);
  // Traced vs untraced cost of one iteration's three ops.
  auto per_iter = [](const Phase& p) {
    double w = 0;
    for (const auto& o : p.ops) w += SucceededSum(o.wall);
    return w / static_cast<double>(p.iterations);
  };
  r->set("bench.trace_overhead_frac", per_iter(tp) / per_iter(ph) - 1.0,
         "frac", tp.iterations);
  r->info["spans_recorded"] = std::to_string(spans.size());
  return 0;
}

}  // namespace perfbench
