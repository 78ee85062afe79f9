// service_mix: one svc::StripeService configured as `eccli --qos`
// ships it (default GovernorConfig, one latency side-pool worker, the
// default DIALGA codec factory), in memory. A closed-loop producer
// keeps 8 RS(8,3)/64 KiB bulk encodes outstanding over a ring of
// pre-filled buffers; an open-loop sender submits RS(8,3)/4 KiB
// degraded-read decodes with one seed-chosen erasure at a fixed rate;
// a harvester thread observes their completions. Latency runs from the
// intended send time, so a late sender cannot hide queueing.
#include <sys/prctl.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common.h"
#include "dialga/dialga.h"
#include "ec/isal.h"
#include "obs/trace.h"
#include "svc/governor.h"
#include "svc/stripe_service.h"

namespace perfbench {
namespace {

constexpr std::size_t kK = 8, kM = 3, kN = kK + kM;
constexpr std::size_t kBulkBlock = 64 << 10, kReadBlock = 4 << 10;
constexpr std::size_t kBulkSlots = 16, kBulkOutstanding = 8;
constexpr std::size_t kReadSlots = 128;
constexpr double kReadRate = 2000.0;  // degraded reads per second
/// Tails are medians over chunks of this many consecutive samples (1 s
/// of degraded reads), so 20 lie beyond a chunk's p99.
constexpr std::size_t kChunk = 2000;
/// Bench-side span ids: degraded reads count from 0, bulk stripes from here.
constexpr std::uint64_t kBulkOpIds = 1ull << 40;
/// Upper bound on completed bulk stripes per second (about 2x what a
/// 4-vCPU host reaches), for pre-sizing sample storage.
constexpr double kMaxBulkPerS = 60000.0;

void Pretouch(std::vector<double>* v, std::size_t n) {
  v->assign(n, 0.0);
  v->clear();
}

struct System {
  std::unique_ptr<svc::BandwidthGovernor> governor;  // outlives service
  std::unique_ptr<svc::StripeService> service;
};

/// Pre-filled stripes: `slots` x (k + m) blocks, parity from a plain
/// ec::IsalCodec reference, plus a pristine copy to check against.
struct Ring {
  std::size_t block;
  std::vector<std::byte> live, pristine;

  Ring(std::size_t slots, std::size_t block_size, std::uint64_t stream)
      : block(block_size), live(slots * kN * block_size) {
    FillSeeded(stream, 0, live);
    const ec::IsalCodec ref(kK, kM);
    for (std::size_t s = 0; s < slots; ++s) {
      ref.encode(block, data(s), parity(s));
    }
    pristine = live;
  }
  std::byte* at(std::size_t slot, std::size_t i) {
    return &live[(slot * kN + i) * block];
  }
  const std::byte* ref(std::size_t slot, std::size_t i) const {
    return &pristine[(slot * kN + i) * block];
  }
  std::vector<const std::byte*> data(std::size_t slot) {
    std::vector<const std::byte*> v;
    for (std::size_t i = 0; i < kK; ++i) v.push_back(at(slot, i));
    return v;
  }
  std::vector<std::byte*> parity(std::size_t slot) {
    std::vector<std::byte*> v;
    for (std::size_t j = 0; j < kM; ++j) v.push_back(at(slot, kK + j));
    return v;
  }
  std::vector<std::byte*> blocks(std::size_t slot) {
    std::vector<std::byte*> v;
    for (std::size_t i = 0; i < kN; ++i) v.push_back(at(slot, i));
    return v;
  }
};

svc::EncodeRequest BulkRequest(Ring& ring, std::size_t slot) {
  svc::EncodeRequest req;
  req.shape = {kK, kM, kBulkBlock};
  req.data = ring.data(slot);
  req.parity = ring.parity(slot);
  return req;
}

svc::DecodeRequest ReadRequest(Ring& ring, std::size_t slot,
                               std::size_t erased) {
  svc::DecodeRequest req;
  req.shape = {kK, kM, kReadBlock};
  req.blocks = ring.blocks(slot);
  req.erasures = {erased};
  return req;
}

System MakeSystem(Ring& bulk, Ring& reads) {
  System s;
  s.governor = std::make_unique<svc::BandwidthGovernor>(svc::GovernorConfig{});
  svc::StripeService::Config cfg;
  cfg.governor = s.governor.get();
  cfg.latency_pool_threads = 1;
  s.service = std::make_unique<svc::StripeService>(std::move(cfg));
  // First use of both shapes: codec factory, pools, governor state.
  s.service->submit(BulkRequest(bulk, 0)).get();
  s.service->submit(ReadRequest(reads, 0, kK)).get();
  return s;
}

struct Phase {
  std::vector<double> read_lat;   ///< seconds in send order, +inf if failed
  std::vector<double> bulk_lat;   ///< in completion order
  std::vector<double> bulk_t;     ///< completion, seconds into the phase
  std::vector<double> late;       ///< sender lateness, seconds
  double bulk_bytes = 0;          ///< completed inside the window
  double window = 0;
};

/// Runs producer, sender and harvester for `seconds`.
Phase RunPhase(const Args& args, System& sys, Ring& bulk, Ring& reads,
               double seconds, std::uint64_t phase_seed, SpanLog* spans,
               Report* r) {
  Phase ph;
  // Sample storage is sized and touched up front, so peak RSS does not
  // follow how many stripes the phase happened to complete.
  const auto bulk_cap = static_cast<std::size_t>(kMaxBulkPerS * seconds) + 64;
  const auto read_cap = static_cast<std::size_t>(kReadRate * seconds) + 64;
  for (auto* v : {&ph.bulk_lat, &ph.bulk_t}) Pretouch(v, bulk_cap);
  for (auto* v : {&ph.read_lat, &ph.late}) Pretouch(v, read_cap);
  std::mutex rmu;  // guards r (attempted/failed/notes)
  auto count = [&](bool ok, const std::string& wrong) {
    std::lock_guard<std::mutex> lk(rmu);
    ++r->attempted;
    if (!ok) ++r->failed;
    if (!wrong.empty()) r->fail_correctness(wrong);
  };
  // An exception ends that thread's load and fails the run; it must not
  // escape a thread entry function.
  auto guarded = [&](const char* who, auto&& body) {
    try {
      body();
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lk(rmu);
      ++r->failed;
      r->notes.push_back(std::string(who) + " stopped: " + e.what());
    }
  };
  svc::StripeService& service = *sys.service;
  const double start = Now();
  const double end = start + seconds;

  auto produce = [&] {
    struct Inflight {
      std::size_t slot;
      bool sampled;
      double t0;
      std::future<svc::Result> f;
    };
    Rng rng(args.seed ^ phase_seed ^ 0xB01C);
    std::deque<Inflight> q;
    std::size_t next = 0;
    auto submit = [&] {
      const std::size_t slot = next++ % kBulkSlots;
      const bool sampled = rng.below(8) == 0;
      if (sampled) {
        for (std::byte* p : bulk.parity(slot)) {
          std::memset(p, 0xA5, kBulkBlock);
        }
      }
      const double t0 = Now();
      q.push_back({slot, sampled, t0, service.submit(BulkRequest(bulk, slot))});
      spans->add(kBulkOpIds + next, "svc.submit", "bulk_encode", t0, Now());
    };
    for (std::size_t i = 0; i < kBulkOutstanding; ++i) submit();
    while (!q.empty()) {
      Inflight in = std::move(q.front());
      q.pop_front();
      const svc::Result res = in.f.get();
      const double t1 = Now();
      ph.bulk_t.push_back(t1 - start);
      std::string wrong;
      if (res.ok()) {
        ph.bulk_lat.push_back(t1 - in.t0);
        if (t1 <= end) ph.bulk_bytes += kK * kBulkBlock;
        for (std::size_t j = 0; in.sampled && j < kM; ++j) {
          if (std::memcmp(bulk.at(in.slot, kK + j), bulk.ref(in.slot, kK + j),
                          kBulkBlock) != 0) {
            wrong = "bulk parity differs from the ec::IsalCodec reference";
          }
        }
      } else {
        ph.bulk_lat.push_back(kFailed);
      }
      count(res.ok() && wrong.empty(), wrong);
      if (Now() < end) submit();
    }
  };

  struct Sent {
    std::size_t slot, erased;
    std::uint64_t op;
    double intended;
    std::future<svc::Result> f;
  };
  std::mutex qmu;
  std::condition_variable qcv;
  std::deque<Sent> sent;
  bool sender_done = false;
  std::vector<std::atomic<bool>> busy(kReadSlots);

  std::atomic<bool> harvester_gone{false};

  auto send = [&] {
    Rng rng(args.seed ^ phase_seed ^ 0x5E4D);
    for (std::uint64_t i = 0;; ++i) {
      const double intended = start + static_cast<double>(i) / kReadRate;
      if (intended >= end) break;
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(intended))));
      const std::size_t slot = i % kReadSlots;
      while (busy[slot].load(std::memory_order_acquire)) {
        if (harvester_gone.load()) throw std::runtime_error("harvester stopped");
        std::this_thread::yield();
      }
      busy[slot].store(true, std::memory_order_relaxed);
      const std::size_t erased = rng.below(kN);
      std::memset(reads.at(slot, erased), 0x5A, kReadBlock);
      const double t0 = Now();
      ph.late.push_back(t0 - intended);
      auto f = service.submit(ReadRequest(reads, slot, erased));
      spans->add(i, "svc.submit", "degraded_read", t0, Now());
      {
        std::lock_guard<std::mutex> lk(qmu);
        sent.push_back({slot, erased, i, intended, std::move(f)});
      }
      qcv.notify_one();
    }
  };

  auto harvest = [&] {
    std::vector<std::byte> want(kReadBlock);
    for (;;) {
      Sent s;
      {
        std::unique_lock<std::mutex> lk(qmu);
        qcv.wait(lk, [&] { return !sent.empty() || sender_done; });
        if (sent.empty()) break;
        s = std::move(sent.front());
        sent.pop_front();
      }
      const svc::Result res = s.f.get();
      const double t1 = Now();
      spans->add(s.op, "degraded_read", nullptr, s.intended, t1);
      std::string wrong;
      if (res.ok()) {
        ph.read_lat.push_back(t1 - s.intended);
        std::memcpy(want.data(), reads.ref(s.slot, s.erased), kReadBlock);
        if (args.corrupt_expected && s.op == 0) want[7] ^= std::byte{1};
        if (std::memcmp(reads.at(s.slot, s.erased), want.data(), kReadBlock) !=
            0) {
          wrong = "reconstructed block differs from the pristine copy";
        }
        spans->add(s.op, "verify", "degraded_read", t1, Now());
      } else {
        ph.read_lat.push_back(kFailed);
      }
      // Leave the slot pristine for its next use whatever happened.
      std::memcpy(reads.at(s.slot, s.erased), reads.ref(s.slot, s.erased),
                  kReadBlock);
      busy[s.slot].store(false, std::memory_order_release);
      count(res.ok() && wrong.empty(), wrong);
    }
  };

  std::thread producer([&] { guarded("bulk producer", produce); });
  std::thread sender([&] {
    // The default 50 us timer slack would make every send late by
    // design; the schedule is the workload, so ask for exact wakeups.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    guarded("degraded-read sender", send);
    std::lock_guard<std::mutex> lk(qmu);
    sender_done = true;
    qcv.notify_one();
  });
  std::thread harvester([&] {
    guarded("degraded-read harvester", harvest);
    harvester_gone = true;
  });
  sender.join();
  harvester.join();
  producer.join();
  ph.window = seconds;
  return ph;
}


/// Data bytes of completed bulk stripes per second: the median over
/// the phase's whole one-second windows.
double BulkGBps(const Phase& ph) {
  std::vector<double> per_window(static_cast<std::size_t>(ph.window), 0.0);
  for (std::size_t i = 0; i < ph.bulk_t.size(); ++i) {
    const auto w = static_cast<std::size_t>(ph.bulk_t[i]);
    if (w < per_window.size() && ph.bulk_lat[i] < kFailed) {
      per_window[w] += kK * kBulkBlock;
    }
  }
  if (per_window.empty()) return ph.bulk_bytes / ph.window / 1e9;
  return Median(per_window) / 1e9;
}

}  // namespace

int RunServiceMix(const Args& args, Report* r) {
  Ring bulk(kBulkSlots, kBulkBlock, args.seed ^ 0xB0);
  Ring reads(kReadSlots, kReadBlock, args.seed ^ 0xDE);
  const double c0 = ProcessCpuSeconds();
  const double t0 = Now();
  System sys = MakeSystem(bulk, reads);
  if (args.setup_only) {
    r->set("setup_wall_s", Now() - t0, "s");
    r->set("setup_s", ProcessCpuSeconds() - c0, "s");
    return 0;
  }
  SpanLog spans;
  const double secs = args.trace ? args.seconds / 2 : args.seconds;
  const RegSnapshot before = RegSnapshot::Take();
  const CpuTicks ticks0 = ReadCpuTicks();
  const Phase ph = RunPhase(args, sys, bulk, reads, secs, 1, &spans, r);
  r->info["cpu_steal_frac"] = std::to_string(StealFrac(ticks0, ReadCpuTicks()));
  const RegSnapshot after = RegSnapshot::Take();
  Fingerprint(r, args.data_dir, before, after);

  // Tails are medians over chunks of consecutive samples; throughput is
  // the median over one-second windows.
  std::vector<double> p99_chunks;
  auto chunked = [&](const std::vector<double>& v, double q,
                     std::vector<double>* chunks) {
    return ChunkedPercentile(Micros(v), kChunk, q, chunks);
  };
  const double read_p50 = chunked(ph.read_lat, 50, nullptr);
  const double read_p99 = chunked(ph.read_lat, 99, &p99_chunks);
  const double bulk_p50 = chunked(ph.bulk_lat, 50, nullptr);
  const double bulk_p99 = chunked(ph.bulk_lat, 99, nullptr);
  const double bulk_gbps = BulkGBps(ph);
  r->set("bulk_encode_gbps", bulk_gbps, "GB/s", ph.bulk_lat.size());
  r->set("write_gbps", bulk_gbps, "GB/s", ph.bulk_lat.size());
  r->set("write_p50_us", bulk_p50, "us", ph.bulk_lat.size());
  r->set("write_p99_us", bulk_p99, "us", ph.bulk_lat.size());
  r->set("degraded_read_p50_us", read_p50, "us", ph.read_lat.size());
  r->set("degraded_read_p99_us", read_p99, "us", ph.read_lat.size());
  r->set("degraded_read_p95_us", chunked(ph.read_lat, 95, nullptr), "us",
         ph.read_lat.size());
  r->info["degraded_read_p99_us_per_chunk"] = JoinRounded(p99_chunks);
  r->info["degraded_read_rate_per_s"] = std::to_string(kReadRate);
  if (!args.trace) return 0;

  obs::Tracer::Global().set_capacity(1 << 20);
  obs::Tracer::Global().clear();
  obs::Tracer::Global().set_enabled(true);
  spans.set_enabled(true);
  const RegSnapshot tb = RegSnapshot::Take();
  const Phase tp = RunPhase(args, sys, bulk, reads, secs, 2, &spans, r);
  const RegSnapshot ta = RegSnapshot::Take();
  obs::Tracer::Global().set_enabled(false);
  spans.set_enabled(false);
  spans.write(args.data_dir / "spans.jsonl");

  const double user_bytes =
      tp.bulk_bytes + static_cast<double>(tp.read_lat.size() * kReadBlock);
  RegistryLayerMetrics(r, tb, ta, user_bytes);
  // Queue and completion tails of the degraded reads; execution of the
  // bulk stripes, where the kernel does the work.
  ServiceSpanMetrics(r, "decode", "encode");
  r->set("bench.gen_late_us.p99", Percentile(Micros(tp.late), 99), "us",
         tp.late.size());
  r->set("bench.trace_overhead_frac",
         chunked(tp.read_lat, 50, nullptr) / read_p50 - 1.0,
         "frac", tp.read_lat.size());

  // Attribution: summed latency of each op class against the service
  // stages of its stripe spans and the sender's lateness.
  auto attribute = [&](const std::string& op, const std::vector<double>& lat,
                       double late) {
    std::map<std::string, double> a;
    const double e2e = SucceededSum(lat);
    double queue = 0, exec = 0, complete = 0;
    for (const obs::StripeSpan& s : obs::Tracer::Global().snapshot()) {
      if (s.op != op || s.total_s < 0 || s.exec_s < 0 || s.batch_s < 0) {
        continue;
      }
      queue += s.batch_s;
      exec += s.exec_s - s.batch_s;
      complete += s.total_s - s.exec_s;
    }
    a["e2e_s"] = e2e;
    a["bench.gen_late_s"] = late;
    a["svc.queue_s"] = queue;
    a["svc.exec_s"] = exec;
    a["svc.complete_s"] = complete;
    const double layers = late + queue + exec + complete;
    a["residual_s"] = e2e - layers;
    a["residual_frac"] = e2e > 0 ? (e2e - layers) / e2e : 0;
    return a;
  };
  double late = 0;
  for (const double x : tp.late) late += x;
  r->attribution["degraded_read"] = attribute("decode", tp.read_lat, late);
  r->attribution["bulk_encode"] = attribute("encode", tp.bulk_lat, 0);
  r->set("bench.residual_frac",
         r->attribution["degraded_read"]["residual_frac"], "frac",
         tp.read_lat.size());

  // Timed public calls at this workload's two shapes.
  const ec::IsalCodec isal(kK, kM);
  const dialga::DialgaCodec codec(kK, kM);
  std::size_t calls = 0;
  const double kernel_s = TimePerCall(0.2, [&] {
    isal.encode_with(kBulkBlock, bulk.data(0), bulk.parity(0),
                     ec::HostKernelOptions{});
    ++calls;
  });
  r->set("gf.kernel_gbps", kK * kBulkBlock / kernel_s / 1e9, "GB/s", calls);
  r->set("ec.codec_encode_us",
         TimePerCall(0.2, [&] {
           codec.encode(kBulkBlock, bulk.data(0), bulk.parity(0));
         }) * 1e6,
         "us");
  const std::vector<std::size_t> erased = {3};
  const auto blocks = reads.blocks(0);
  const double codec_dec = TimePerCall(
      0.2, [&] { codec.decode(kReadBlock, blocks, erased); });
  const double isal_dec = TimePerCall(0.2, [&] {
    isal.decode_with(kReadBlock, blocks, erased, ec::HostKernelOptions{});
  });
  r->set("ec.codec_decode_us", codec_dec * 1e6, "us");
  r->set("dialga.host_overhead_us", (codec_dec - isal_dec) * 1e6, "us");
  std::vector<double> idle;
  for (int i = 0; i < 200; ++i) {
    const double t0 = Now();
    sys.service->submit(ReadRequest(reads, 1, 2)).get();
    idle.push_back(Now() - t0);
  }
  r->set("svc.idle_roundtrip_us", Median(idle) * 1e6, "us", idle.size());
  r->info["spans_recorded"] = std::to_string(spans.size());
  return 0;
}

}  // namespace perfbench
