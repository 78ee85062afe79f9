// dialga_sim — run one timed erasure-coding experiment on the simulated
// PM testbed from the command line.
//
//   dialga_sim [--system ISA-L|ISA-L-D|Zerasure|Cerasure|DIALGA]
//              [--op encode|decode] [--k N] [--m N] [--block BYTES]
//              [--threads N] [--data MiB] [--simd avx512|avx256]
//              [--device optane|cmmh] [--freq GHZ] [--no-hw-prefetch]
//              [--csv]
//
// Prints one row of results (throughput, latency, traffic, prefetch
// counters). The flexible twin of the fixed per-figure bench binaries —
// use it to explore configurations the paper did not plot.
#include <cstring>
#include <iostream>
#include <string>

#include "bench_util/runner.h"
#include "bench_util/stats.h"
#include "bench_util/table.h"
#include "common/env.h"
#include "dialga/dialga.h"
#include "dialga/registry.h"

namespace {

struct Options {
  std::string system = "DIALGA";
  std::string op = "encode";
  std::size_t k = 12;
  std::size_t m = 4;
  std::size_t block = 1024;
  std::size_t threads = 1;
  std::size_t data_mib = 16;
  ec::SimdWidth simd = ec::SimdWidth::kAvx512;
  bool cmmh = false;
  double freq_ghz = 0.0;  // 0 = preset default
  bool hw_prefetch = true;
  bool csv = false;
  std::size_t repeat = 1;
};

void Usage() {
  std::cerr << "usage: dialga_sim [--system S] [--op encode|decode] "
               "[--k N] [--m N]\n"
               "                  [--block BYTES] [--threads N] [--data "
               "MiB] [--simd avx512|avx256]\n"
               "                  [--device optane|cmmh] [--freq GHZ] "
               "[--no-hw-prefetch] [--csv] [--repeat N]\n"
               "systems: ISA-L ISA-L-D Zerasure Cerasure DIALGA\n";
}

/// True when `v` is `a` or `b`, the two spellings an enum flag takes.
bool OneOf(const char* v, const char* a, const char* b) {
  return v != nullptr && (std::strcmp(v, a) == 0 || std::strcmp(v, b) == 0);
}

bool Parse(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto number = [&](std::size_t* out) {
      std::uint64_t n = 0;
      if (!common::ParseU64(value(), &n)) return false;
      *out = static_cast<std::size_t>(n);
      return true;
    };
    if (a == "--system") {
      const char* v = value();
      if (!v) return false;
      o->system = v;
    } else if (a == "--op") {
      const char* v = value();
      if (!OneOf(v, "encode", "decode")) return false;
      o->op = v;
    } else if (a == "--k") {
      if (!number(&o->k)) return false;
    } else if (a == "--m") {
      if (!number(&o->m)) return false;
    } else if (a == "--block") {
      if (!number(&o->block)) return false;
    } else if (a == "--threads") {
      if (!number(&o->threads)) return false;
    } else if (a == "--data") {
      if (!number(&o->data_mib)) return false;
    } else if (a == "--simd") {
      const char* v = value();
      if (!OneOf(v, "avx512", "avx256")) return false;
      o->simd = std::strcmp(v, "avx256") == 0 ? ec::SimdWidth::kAvx256
                                              : ec::SimdWidth::kAvx512;
    } else if (a == "--device") {
      const char* v = value();
      if (!OneOf(v, "optane", "cmmh")) return false;
      o->cmmh = std::strcmp(v, "cmmh") == 0;
    } else if (a == "--freq") {
      if (!common::ParseDouble(value(), &o->freq_ghz) || o->freq_ghz < 0) {
        return false;
      }
    } else if (a == "--no-hw-prefetch") {
      o->hw_prefetch = false;
    } else if (a == "--csv") {
      o->csv = true;
    } else if (a == "--repeat") {
      if (!number(&o->repeat)) return false;
    } else {
      return false;
    }
  }
  return o->k > 0 && o->m > 0 && o->block >= 64 && o->threads > 0;
}

std::unique_ptr<ec::Codec> MakeBaseline(const Options& o) {
  if (o.system == "DIALGA") return nullptr;  // handled adaptively
  dialga::CodecSpec spec;
  spec.name = o.system;
  spec.k = o.k;
  spec.m = o.m;
  spec.simd = o.simd;
  return dialga::MakeCodec(spec);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!Parse(argc, argv, &o)) {
    Usage();
    return 2;
  }

  simmem::SimConfig cfg =
      o.cmmh ? simmem::CmmHLike() : simmem::XeonGold6240Optane100();
  if (o.freq_ghz > 0.0) cfg.cpu_freq_ghz = o.freq_ghz;

  bench_util::WorkloadConfig wl;
  wl.k = o.k;
  wl.m = o.m;
  wl.block_size = o.block;
  wl.threads = o.threads;
  wl.total_data_bytes = o.data_mib << 20;

  const std::vector<std::size_t> erasures = [&] {
    std::vector<std::size_t> e;
    for (std::size_t i = 0; i < o.m; ++i) e.push_back(i);
    return e;
  }();

  bench_util::RunResult r;
  if (o.system == "DIALGA") {
    const dialga::DialgaCodec codec(o.k, o.m, o.simd);
    if (o.op == "decode") {
      auto provider = codec.make_decode_provider(
          {o.k, o.m, o.block, o.threads}, cfg, erasures);
      r = bench_util::RunTimed(cfg, wl, *provider, o.hw_prefetch);
    } else {
      auto provider =
          codec.make_encode_provider({o.k, o.m, o.block, o.threads}, cfg);
      r = bench_util::RunTimed(cfg, wl, *provider, o.hw_prefetch);
    }
  } else {
    const auto codec = MakeBaseline(o);
    if (!codec) {
      std::cerr << "no result: unknown system or search did not converge "
                   "(Zerasure, k > 32)\n";
      return 1;
    }
    r = o.op == "decode"
            ? bench_util::RunDecode(cfg, wl, *codec, erasures, o.hw_prefetch)
            : bench_util::RunEncode(cfg, wl, *codec, o.hw_prefetch);
  }

  // Multi-run statistics (paper methodology: average of 10 runs).
  std::string gbps_cell = bench_util::Table::num(r.gbps);
  if (o.repeat > 1 && o.system != "DIALGA") {
    const auto codec = MakeBaseline(o);
    if (codec && o.op == "encode") {
      const bench_util::Stats st = bench_util::RunEncodeRepeated(
          cfg, wl, *codec, o.repeat, o.hw_prefetch);
      gbps_cell = bench_util::Table::num(st.mean) + "±" +
                  bench_util::Table::num(st.stdev, 3);
    }
  }

  bench_util::Table t({"system", "op", "k", "m", "block", "threads", "simd",
                       "device", "GB/s", "avg_lat_ns", "read_amp",
                       "write_amp", "useless_pf%"});
  t.row({o.system, o.op, std::to_string(o.k), std::to_string(o.m),
         std::to_string(o.block), std::to_string(o.threads),
         ec::to_string(o.simd), o.cmmh ? "cmmh" : "optane",
         gbps_cell,
         bench_util::Table::num(r.pmu.avg_load_latency_ns(), 1),
         bench_util::Table::num(r.media_amplification()),
         bench_util::Table::num(r.pmu.media_write_amplification()),
         bench_util::Table::pct(r.pmu.useless_prefetch_ratio())});
  if (o.csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }
  return 0;
}
