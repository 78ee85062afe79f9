// Host microbenchmarks of the FUNCTIONAL GF kernels (real wall-clock
// time, unlike every other bench in this directory, which reports
// simulated time). Useful when adopting the library to protect real
// data: shows what the scalar/SSSE3/AVX2/AVX-512/GFNI dispatch is
// worth on the build host.
//
// Before the google-benchmark entries run, a custom main measures the
// headline of this rewrite — the fused multi-parity cache-blocked
// encode against the per-coefficient unfused baseline — for every ISA
// level the host supports, prints the series, writes it as
// <stem>_kernels.csv under DIALGA_CSV_DIR (falling back to the
// current directory), and checks the fused driver is >= 1.5x the
// unfused baseline at AVX2 for the paper's k=12, m=4 shape (median of
// interleaved per-rep ratios). A failed check exits 1.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "bench_util/table.h"
#include "ec/codec_util.h"
#include "ec/isal.h"
#include "gf/gf65536.h"
#include "gf/gf_simd.h"
#include "obs/metrics.h"

namespace {

std::vector<std::byte> RandomBytes(std::size_t n) {
  std::mt19937_64 rng(1);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng());
  return v;
}

void BM_Gf8MulAcc(benchmark::State& state) {
  const auto level = static_cast<gf::IsaLevel>(state.range(0));
  if (!gf::isa_supported(level)) {
    state.SkipWithError("host/build lacks this ISA");
    return;
  }
  const gf::IsaLevel prev = gf::active_isa();
  gf::set_active_isa(level);
  const std::size_t n = 64 * 1024;
  const auto src = RandomBytes(n);
  std::vector<std::byte> dst(n, std::byte{0});
  for (auto _ : state) {
    gf::mul_acc(0x53, src.data(), dst.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n));
  gf::set_active_isa(prev);
}
BENCHMARK(BM_Gf8MulAcc)
    ->Arg(static_cast<int>(gf::IsaLevel::kScalar))
    ->Arg(static_cast<int>(gf::IsaLevel::kSsse3))
    ->Arg(static_cast<int>(gf::IsaLevel::kAvx2))
    ->Arg(static_cast<int>(gf::IsaLevel::kAvx512))
    ->Arg(static_cast<int>(gf::IsaLevel::kGfni));

void BM_Gf8MulAccMulti4(benchmark::State& state) {
  // One source streamed into four parity accumulators — the fused
  // kernel's raison d'etre. Compare bytes/second against BM_Gf8MulAcc
  // at the same ISA: the fused form reads the source once instead of
  // four times.
  const auto level = static_cast<gf::IsaLevel>(state.range(0));
  if (!gf::isa_supported(level)) {
    state.SkipWithError("host/build lacks this ISA");
    return;
  }
  const gf::IsaLevel prev = gf::active_isa();
  gf::set_active_isa(level);
  const std::size_t n = 64 * 1024;
  const auto src = RandomBytes(n);
  gf::PreparedCoeff coeffs[4];
  for (int t = 0; t < 4; ++t) {
    coeffs[t] = gf::prepare_coeff(static_cast<gf::u8>(0x53 + t));
  }
  std::vector<std::vector<std::byte>> parity(4,
                                             std::vector<std::byte>(n));
  std::byte* dsts[4];
  for (int t = 0; t < 4; ++t) dsts[t] = parity[t].data();
  for (auto _ : state) {
    gf::mul_acc_multi(coeffs, src.data(), dsts, 4, n);
    benchmark::DoNotOptimize(dsts);
  }
  // Count parity bytes produced, matching 4 BM_Gf8MulAcc passes.
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * n * 4));
  gf::set_active_isa(prev);
}
BENCHMARK(BM_Gf8MulAccMulti4)
    ->Arg(static_cast<int>(gf::IsaLevel::kScalar))
    ->Arg(static_cast<int>(gf::IsaLevel::kSsse3))
    ->Arg(static_cast<int>(gf::IsaLevel::kAvx2))
    ->Arg(static_cast<int>(gf::IsaLevel::kAvx512))
    ->Arg(static_cast<int>(gf::IsaLevel::kGfni));

void BM_Gf16MulAcc(benchmark::State& state) {
  const std::size_t n = 64 * 1024;
  const auto src = RandomBytes(n);
  std::vector<std::byte> dst(n, std::byte{0});
  for (auto _ : state) {
    gf16::mul_acc(0x1B2D, src.data(), dst.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_Gf16MulAcc);

void BM_XorAcc(benchmark::State& state) {
  const std::size_t n = 64 * 1024;
  const auto src = RandomBytes(n);
  std::vector<std::byte> dst(n, std::byte{0});
  for (auto _ : state) {
    gf::xor_acc(src.data(), dst.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_XorAcc);

void BM_FunctionalEncode(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::size_t m = 4, bs = 4096;
  const ec::IsalCodec codec(k, m);
  std::vector<std::vector<std::byte>> blocks(k + m);
  std::vector<const std::byte*> data;
  std::vector<std::byte*> parity;
  for (std::size_t i = 0; i < k; ++i) {
    blocks[i] = RandomBytes(bs);
    data.push_back(blocks[i].data());
  }
  for (std::size_t j = 0; j < m; ++j) {
    blocks[k + j].resize(bs);
    parity.push_back(blocks[k + j].data());
  }
  for (auto _ : state) {
    codec.encode(bs, data, parity);
    benchmark::DoNotOptimize(parity.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * k * bs));
}
BENCHMARK(BM_FunctionalEncode)->Arg(4)->Arg(12)->Arg(28);

// --- fused vs unfused headline series ------------------------------

struct Shape {
  std::size_t k, m, bs;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct Paired {
  double fused_gbps = 0, unfused_gbps = 0;
  double speedup = 0;  ///< median of the per-rep fused/unfused ratios
};

/// Wall-clock GB/s of both encoders over kReps reps of kInner encodes
/// each (batching keeps a rep well above timer resolution). Each rep
/// times fused and unfused back to back, alternating which goes first,
/// so a clock or neighbour-load swing on a shared host lands on both
/// sides of that rep's ratio instead of between the two series.
template <typename Fused, typename Unfused>
Paired MeasurePaired(const Shape& s, Fused&& fused, Unfused&& unfused) {
  constexpr int kReps = 21;
  constexpr int kInner = 8;
  const auto gbps = [&](auto& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int it = 0; it < kInner; ++it) fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count();
    return static_cast<double>(kInner * s.k * s.bs) / sec / 1e9;
  };
  fused();  // warm up caches and tables
  unfused();
  std::vector<double> f, u, ratio;
  for (int r = 0; r < kReps; ++r) {
    double fg = 0, ug = 0;
    if (r % 2 == 0) {
      fg = gbps(fused);
      ug = gbps(unfused);
    } else {
      ug = gbps(unfused);
      fg = gbps(fused);
    }
    f.push_back(fg);
    u.push_back(ug);
    ratio.push_back(fg / ug);
  }
  return {Median(f), Median(u), Median(ratio)};
}

std::string Stem(const char* argv0) {
  std::string stem = argv0;
  if (const auto slash = stem.find_last_of('/');
      slash != std::string::npos) {
    stem = stem.substr(slash + 1);
  }
  return stem;
}

/// Runs the fused-vs-unfused comparison per supported ISA, prints the
/// table, writes <stem>_kernels.csv, and returns whether the AVX2
/// acceptance bar (median per-rep fused/unfused ratio >= 1.5) holds
/// (vacuously true when the host lacks AVX2).
bool RunFusedComparison(const char* argv0) {
  const Shape s{12, 4, 64 * 1024};
  const ec::IsalCodec codec(s.k, s.m);

  std::vector<std::vector<std::byte>> blocks(s.k + s.m);
  std::vector<const std::byte*> data;
  std::vector<std::byte*> parity;
  for (std::size_t i = 0; i < s.k; ++i) {
    blocks[i] = RandomBytes(s.bs);
    data.push_back(blocks[i].data());
  }
  for (std::size_t j = 0; j < s.m; ++j) {
    blocks[s.k + j].resize(s.bs);
    parity.push_back(blocks[s.k + j].data());
  }

  bench_util::Table table(
      {"isa", "k", "m", "block_bytes", "fused_GBps", "unfused_GBps",
       "speedup"});
  const gf::IsaLevel prev = gf::active_isa();
  bool avx2_ok = true;
  for (std::size_t l = 0; l < gf::kNumIsaLevels; ++l) {
    const auto level = static_cast<gf::IsaLevel>(l);
    if (!gf::isa_supported(level)) continue;
    gf::set_active_isa(level);
    const Paired p = MeasurePaired(
        s, [&] { codec.encode(s.bs, data, parity); },
        [&] {
          ec::NaiveSystematicEncode(codec.generator(), s.k, s.m, s.bs, data,
                                    parity);
        });
    table.row({gf::isa_name(level), std::to_string(s.k),
               std::to_string(s.m), std::to_string(s.bs),
               bench_util::Table::num(p.fused_gbps, 3),
               bench_util::Table::num(p.unfused_gbps, 3),
               bench_util::Table::num(p.speedup, 2)});
    if (level == gf::IsaLevel::kAvx2) avx2_ok = p.speedup >= 1.5;
  }
  gf::set_active_isa(prev);

  std::cout << "\n=== fused multi-parity encode vs per-coefficient "
               "baseline (host wall clock) ===\n";
  table.print(std::cout);
  const bool have_avx2 = gf::isa_supported(gf::IsaLevel::kAvx2);
  std::cout << "\n  ["
            << (have_avx2 ? (avx2_ok ? "PASS" : "FAIL") : "SKIP")
            << "] fused >= 1.5x unfused at avx2 (k=12, m=4, 64 KiB)\n\n";

  const char* dir = std::getenv("DIALGA_CSV_DIR");
  const std::string path =
      std::string(dir != nullptr ? dir : ".") + "/" + Stem(argv0) +
      "_kernels.csv";
  if (std::ofstream out(path); out) table.print_csv(out);
  return !have_avx2 || avx2_ok;
}

void WriteMetrics(const char* argv0) {
  if (const char* dir = std::getenv("DIALGA_CSV_DIR"); dir != nullptr) {
    const std::string base = std::string(dir) + "/" + Stem(argv0);
    obs::DumpMetricsToFile(base + "_metrics.prom");
    obs::DumpMetricsToFile(base + "_metrics.jsonl");
  }
  if (const char* out = std::getenv("DIALGA_METRICS_OUT");
      out != nullptr && *out != '\0') {
    obs::DumpMetricsToFile(out);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* argv0 = argc > 0 ? argv[0] : "bench_host_kernels";
  const bool gate_ok = RunFusedComparison(argv0);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Scrape last so the registry holds the kernel byte counters from
  // both the comparison series and the benchmark entries.
  WriteMetrics(argv0);
  return gate_ok ? 0 : 1;
}
