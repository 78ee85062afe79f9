// Shared pieces of the repository benchmark: arguments, seeded input
// bytes, statistics, registry deltas, bench-side spans, the machine
// fingerprint and the result record every workload fills in.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path data_dir;
  /// Small inputs and short phases: the benchmark's own end-to-end test.
  bool tiny = false;
  /// Negative control: the verifier flips one expected byte, so a
  /// correct program must be reported as wrong.
  bool corrupt_expected = false;
  /// Only construct the workload's system once, the first construction
  /// in this process, and report its CPU time as setup_s and its wall
  /// time as setup_wall_s.
  bool setup_only = false;
};

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds this process has used, over all its threads, user and
/// system. Unlike wall time it does not grow while runnable threads
/// wait for a CPU that other load holds.
double ProcessCpuSeconds();

/// Machine-wide CPU ticks from /proc/stat: stolen by the hypervisor,
/// and all. Their delta over a phase is the share of CPU time stolen.
struct CpuTicks {
  double steal = 0, total = 0;
};
CpuTicks ReadCpuTicks();
double StealFrac(const CpuTicks& before, const CpuTicks& after);

/// splitmix64: the one generator every seeded choice derives from.
inline std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(Mix(seed)) {}
  std::uint64_t next() { return s_ = Mix(s_); }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Bytes [offset, offset + out.size()) of the seeded stream `stream`.
/// Position-addressed, so any chunking reproduces the same bytes.
void FillSeeded(std::uint64_t stream, std::uint64_t offset,
                std::span<std::byte> out);

/// Linear-interpolated percentile (q in [0, 100]); +inf samples sort
/// last, so failed ops push the tail up. 0 for no samples.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// Seconds to microseconds, element-wise.
std::vector<double> Micros(std::vector<double> seconds);

/// Failed ops are recorded as kFailed (an infinite latency sample).
inline constexpr double kFailed = 1e300;
/// Sum of the samples of ops that succeeded.
double SucceededSum(const std::vector<double>& v);

/// Median over consecutive chunks of `v` (samples in time order) of
/// each chunk's q-th percentile. The chunks split `v` evenly, each
/// holding at least `chunk` samples; fewer samples than that make one
/// chunk of all of them, so every sample counts however slow the run
/// was. The per-chunk percentiles go to `*chunks` when it is non-null.
/// A burst of interference spoils one chunk instead of the whole run's
/// tail.
double ChunkedPercentile(const std::vector<double>& v, std::size_t chunk,
                         double q, std::vector<double>* chunks);

/// "a b c" with each value rounded to an integer (window listings).
std::string JoinRounded(const std::vector<double>& v);

/// Snapshot of every registry counter, gauge and histogram sum, keyed
/// by "name{k=v,...}".
class RegSnapshot {
 public:
  static RegSnapshot Take();
  /// Sum over every series of `name` whose labels include `label`
  /// ("k=v"; empty matches all).
  double sum(const std::string& name, const std::string& label = "") const;

 private:
  std::map<std::string, double> values_;
};

/// after.sum - before.sum for one metric family.
double Delta(const RegSnapshot& before, const RegSnapshot& after,
             const std::string& name, const std::string& label = "");

/// Spans the benchmark records around its own calls into the library:
/// op id, name, parent name, start and end (seconds since the
/// recorder's epoch). Kept in memory; written out once at the end.
class SpanLog {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  void add(std::uint64_t op, const char* name, const char* parent,
           double start, double end);
  std::size_t size() const;
  bool write(const std::filesystem::path& path) const;

 private:
  struct Span {
    std::uint64_t op;
    const char* name;
    const char* parent;
    double start, end;
  };
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  double epoch_ = Now();
};

/// One reported figure with its unit and the number of samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Attribution: end-to-end wall, layer self times, residual.
  std::map<std::string, std::map<std::string, double>> attribution;
  std::map<std::string, std::string> info;
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 1) {
    metrics[name] = {value, unit, samples};
  }
  void fail_correctness(const std::string& why);
};

/// Seconds per call of `fn`, timed over at least `min_s` and 3 calls;
/// the median of 5 such rounds.
template <typename Fn>
double TimePerCall(double min_s, Fn&& fn) {
  std::vector<double> rounds;
  for (int r = 0; r < 5; ++r) {
    std::size_t n = 0;
    const double t0 = Now();
    double t = t0;
    while (n < 3 || t - t0 < min_s / 5) {
      fn();
      ++n;
      t = Now();
    }
    rounds.push_back((t - t0) / static_cast<double>(n));
  }
  return Median(rounds);
}

/// Every per-layer metric the traced run reports, with its unit. A
/// workload that does not exercise a layer reports it as 0 with 0
/// samples (EnsureLayerDefaults).
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
std::span<const LayerMetricSpec> LayerMetricSpecs();
void EnsureLayerDefaults(Report* r);

/// Registry-delta layer metrics shared by every workload (pool, svc
/// batching and admission, QoS, kernel/aio/checksum bytes per user
/// byte, shard fallbacks), over one measured phase.
void RegistryLayerMetrics(Report* r, const RegSnapshot& before,
                          const RegSnapshot& after, double user_bytes);

/// svc.queue_us / svc.exec_us / svc.complete_us from the obs::Tracer
/// stripe spans recorded during the traced phase. `queue_op` selects
/// the spans for the queue and completion tails, `exec_op` those for
/// the execution median ("" = every span).
void ServiceSpanMetrics(Report* r, const std::string& queue_op,
                        const std::string& exec_op);

/// Peak resident set of this process, MiB (VmHWM).
double PeakRssMiB();

/// Machine and build fingerprint fields, plus the aio backend that ran
/// (from a registry delta over the measured phase).
void Fingerprint(Report* r, const std::filesystem::path& data_dir,
                 const RegSnapshot& before, const RegSnapshot& after);

/// Empty when the process may run; otherwise the reason it refuses.
std::string HermeticViolation();

/// Empty when `data_dir` (or, if it does not exist yet, its nearest
/// existing ancestor) is on a disk-backed filesystem; otherwise the
/// reason file_roundtrip refuses it. On tmpfs the fsync, rename and
/// directory fsync the workload measures would cost nothing.
std::string DataDirViolation(const std::filesystem::path& data_dir);

int RunFileRoundtrip(const Args& args, Report* r);
int RunServiceMix(const Args& args, Report* r);
int RunClusterDegraded(const Args& args, Report* r);

}  // namespace perfbench
