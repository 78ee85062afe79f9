#include "common.h"

#include <sys/statfs.h>
#include <time.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <thread>

#include "fault/injector.h"
#include "gf/gf_simd.h"
#include "integrity/checksum.h"
#include "obs/metrics.h"
#include "obs/trace.h"

extern char** environ;

namespace perfbench {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTicks t;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  for (int i = 0; i < 8; ++i) {
    double v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double StealFrac(const CpuTicks& before, const CpuTicks& after) {
  const double total = after.total - before.total;
  return total > 0 ? (after.steal - before.steal) / total : 0.0;
}

void FillSeeded(std::uint64_t stream, std::uint64_t offset,
                std::span<std::byte> out) {
  const std::uint64_t key = Mix(stream ^ 0x5EEDF11E5EEDF11Eull);
  std::size_t i = 0;
  if (offset % 8 == 0) {  // whole words: the common, fast case
    for (; i + 8 <= out.size(); i += 8) {
      const std::uint64_t word = Mix(key ^ ((offset + i) / 8));
      std::memcpy(out.data() + i, &word, 8);
    }
  }
  while (i < out.size()) {
    const std::uint64_t pos = offset + i;
    const std::uint64_t word = Mix(key ^ (pos / 8));
    const std::size_t lane = pos % 8;
    const std::size_t n = std::min<std::size_t>(8 - lane, out.size() - i);
    std::memcpy(out.data() + i, reinterpret_cast<const std::byte*>(&word) + lane,
                n);
    i += n;
  }
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi]) || std::isinf(v[lo])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

std::vector<double> Micros(std::vector<double> seconds) {
  for (double& x : seconds) x *= 1e6;
  return seconds;
}

double SucceededSum(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) {
    if (x < kFailed) sum += x;
  }
  return sum;
}

double ChunkedPercentile(const std::vector<double>& v, std::size_t chunk,
                         double q, std::vector<double>* chunks) {
  const std::size_t n = v.size();
  const std::size_t count = std::max<std::size_t>(1, n / std::max<std::size_t>(1, chunk));
  std::vector<double> per_chunk;
  for (std::size_t i = 0; n > 0 && i < count; ++i) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(i * n / count);
    const auto last = v.begin() + static_cast<std::ptrdiff_t>((i + 1) * n / count);
    per_chunk.push_back(Percentile(std::vector<double>(first, last), q));
  }
  if (chunks != nullptr) *chunks = per_chunk;
  return Median(std::move(per_chunk));
}

std::string JoinRounded(const std::vector<double>& v) {
  std::string out;
  for (const double x : v) {
    if (!out.empty()) out += ' ';
    out += std::to_string(std::llround(std::min(x, 1e18)));
  }
  return out;
}

RegSnapshot RegSnapshot::Take() {
  RegSnapshot s;
  for (const obs::Sample& smp : obs::Registry::Global().collect()) {
    std::string key = smp.name + "{";
    for (const auto& [k, v] : smp.labels) key += k + "=" + v + ",";
    key += "}";
    s.values_[key] += smp.type == obs::MetricType::kHistogram
                          ? smp.hist.sum
                          : smp.value;
  }
  return s;
}

double RegSnapshot::sum(const std::string& name,
                        const std::string& label) const {
  double total = 0.0;
  const std::string prefix = name + "{";
  for (auto it = values_.lower_bound(prefix);
       it != values_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    if (label.empty() || it->first.find(label + ",") != std::string::npos) {
      total += it->second;
    }
  }
  return total;
}

double Delta(const RegSnapshot& before, const RegSnapshot& after,
             const std::string& name, const std::string& label) {
  return after.sum(name, label) - before.sum(name, label);
}

void SpanLog::add(std::uint64_t op, const char* name, const char* parent,
                  double start, double end) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({op, name, parent, start - epoch_, end - epoch_});
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

bool SpanLog::write(const std::filesystem::path& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream os(path);
  for (const Span& s : spans_) {
    os << "{\"op\":" << s.op << ",\"name\":\"" << s.name
       << "\",\"parent\":\"" << (s.parent ? s.parent : "") << "\",\"start\":"
       << s.start << ",\"end\":" << s.end << "}\n";
  }
  return static_cast<bool>(os);
}

void Report::fail_correctness(const std::string& why) {
  if (correct) notes.push_back("WRONG: " + why);
  correct = false;
}

std::span<const LayerMetricSpec> LayerMetricSpecs() {
  static const LayerMetricSpec kSpecs[] = {
      {"gf.kernel_gbps", "GB/s"},
      {"gf.kernel_bytes_per_user_byte", "ratio"},
      {"ec.codec_encode_us", "us"},
      {"ec.codec_decode_us", "us"},
      {"dialga.host_overhead_us", "us"},
      {"ec.pool.steals_per_task", "ratio"},
      {"ec.pool.max_queue_depth", "count"},
      {"svc.queue_us.p50", "us"},
      {"svc.queue_us.p99", "us"},
      {"svc.exec_us.p50", "us"},
      {"svc.complete_us.p99", "us"},
      {"svc.idle_roundtrip_us", "us"},
      {"svc.mean_batch_stripes", "count"},
      {"svc.rejected_ratio", "ratio"},
      {"svc.qos.deferred_per_batch", "ratio"},
      {"svc.qos.defer_s", "s"},
      {"aio.read_gbps", "GB/s"},
      {"aio.write_durable_ms", "ms"},
      {"aio.read_bytes_per_user_byte", "ratio"},
      {"aio.write_bytes_per_user_byte", "ratio"},
      {"integrity.crc32c_gbps", "GB/s"},
      {"integrity.checksum_bytes_per_user_byte", "ratio"},
      {"shard.encode_residual_frac", "frac"},
      {"shard.decode_residual_frac", "frac"},
      {"shard.serial_fallbacks", "count"},
      {"shard.resubmits", "count"},
      {"cluster.rpcs_per_write", "ratio"},
      {"cluster.rpcs_per_read", "ratio"},
      {"cluster.rpcs_per_degraded_read", "ratio"},
      {"cluster.rpc_bytes_per_user_byte", "ratio"},
      {"cluster.frame_roundtrip_us", "us"},
      {"cluster.degraded_reads", "count"},
      {"bench.gen_late_us.p99", "us"},
      {"bench.trace_overhead_frac", "frac"},
      {"bench.residual_frac", "frac"},
  };
  return kSpecs;
}

void EnsureLayerDefaults(Report* r) {
  for (const LayerMetricSpec& s : LayerMetricSpecs()) {
    if (r->metrics.count(s.name) == 0) r->set(s.name, 0.0, s.unit, 0);
  }
}

void RegistryLayerMetrics(Report* r, const RegSnapshot& b,
                          const RegSnapshot& a, double user_bytes) {
  auto d = [&](const char* name, const std::string& label = "") {
    return Delta(b, a, name, label);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double tasks = d("dialga_pool_tasks_total");
  r->set("ec.pool.steals_per_task", ratio(d("dialga_pool_steals_total"), tasks),
         "ratio", static_cast<std::uint64_t>(tasks));
  r->set("ec.pool.max_queue_depth", a.sum("dialga_pool_max_queue_depth"),
         "count");
  const double batches = d("dialga_svc_batches_total");
  const auto nb = static_cast<std::uint64_t>(batches);
  r->set("svc.mean_batch_stripes",
         ratio(d("dialga_svc_dispatched_stripes_total"), batches), "count", nb);
  const double rejected = d("dialga_svc_rejected_total");
  const double admitted = d("dialga_svc_admitted_total");
  r->set("svc.rejected_ratio", ratio(rejected, admitted + rejected), "ratio",
         static_cast<std::uint64_t>(admitted + rejected));
  r->set("svc.qos.deferred_per_batch",
         ratio(d("dialga_qos_deferred_total"), batches), "ratio", nb);
  r->set("svc.qos.defer_s", d("dialga_qos_defer_seconds"), "s", nb);
  const auto ub = static_cast<std::uint64_t>(user_bytes);
  r->set("gf.kernel_bytes_per_user_byte",
         ratio(d("dialga_gf_kernel_bytes_total"), user_bytes), "ratio", ub);
  r->set("aio.read_bytes_per_user_byte",
         ratio(d("dialga_aio_bytes_total", "op=read"), user_bytes), "ratio", ub);
  r->set("aio.write_bytes_per_user_byte",
         ratio(d("dialga_aio_bytes_total", "op=write"), user_bytes), "ratio",
         ub);
  r->set("integrity.checksum_bytes_per_user_byte",
         ratio(d("dialga_integrity_checksum_bytes_total"), user_bytes), "ratio",
         ub);
  r->set("shard.serial_fallbacks", d("dialga_shard_serial_fallbacks_total"),
         "count");
  r->set("shard.resubmits", d("dialga_shard_service_resubmits_total"),
         "count");
}

void ServiceSpanMetrics(Report* r, const std::string& queue_op,
                        const std::string& exec_op) {
  std::vector<double> queue, exec, complete;
  for (const obs::StripeSpan& s : obs::Tracer::Global().snapshot()) {
    if (s.batch_s < 0 || s.exec_s < 0 || s.total_s < 0) continue;
    if (queue_op.empty() || s.op == queue_op) {
      queue.push_back(s.batch_s * 1e6);
      complete.push_back((s.total_s - s.exec_s) * 1e6);
    }
    if (exec_op.empty() || s.op == exec_op) {
      exec.push_back((s.exec_s - s.batch_s) * 1e6);
    }
  }
  r->set("svc.queue_us.p50", Percentile(queue, 50), "us", queue.size());
  r->set("svc.queue_us.p99", Percentile(queue, 99), "us", queue.size());
  r->set("svc.exec_us.p50", Percentile(exec, 50), "us", exec.size());
  r->set("svc.complete_us.p99", Percentile(complete, 99), "us",
         complete.size());
  if (obs::Tracer::Global().dropped() > 0) {
    r->notes.push_back("tracer dropped " +
                       std::to_string(obs::Tracer::Global().dropped()) +
                       " stripe spans; span tails cover the rest");
  }
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Filesystem of `dir`, or of its nearest existing ancestor.
std::string FsType(std::filesystem::path dir) {
  dir = std::filesystem::absolute(dir);
  std::error_code ec;
  while (!std::filesystem::exists(dir, ec) && dir.has_relative_path()) {
    dir = dir.parent_path();
  }
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x858458F6: return "ramfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

}  // namespace

void Fingerprint(Report* r, const std::filesystem::path& data_dir,
                 const RegSnapshot& before, const RegSnapshot& after) {
  r->info["cpu_model"] = CpuModel();
  r->info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  r->info["gf_best_isa"] = gf::isa_name(gf::best_isa());
  r->info["gf_active_isa"] = gf::isa_name(gf::active_isa());
  r->info["crc32c_hardware"] =
      integrity::Crc32cUsesHardware() ? "true" : "false";
  const double uring =
      Delta(before, after, "dialga_aio_bytes_total", "backend=uring");
  const double stdio =
      Delta(before, after, "dialga_aio_bytes_total", "backend=stdio");
  r->info["aio_backend"] = uring > 0 && stdio > 0 ? "uring+stdio"
                           : uring > 0            ? "uring"
                           : stdio > 0            ? "stdio"
                                                  : "none (bypassed)";
  r->info["aio_fallback_total"] = std::to_string(static_cast<long long>(
      Delta(before, after, "dialga_aio_fallback_total")));
  struct utsname u {};
  if (uname(&u) == 0) r->info["kernel"] = u.release;
  r->info["data_fs"] = FsType(data_dir);
  r->info["compiler"] = PERFBENCH_COMPILER;
  r->info["build_type"] = PERFBENCH_BUILD_TYPE;
}

std::string HermeticViolation() {
#ifndef NDEBUG
  return "assertions are enabled (not a Release build)";
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return std::string("build type is ") + PERFBENCH_BUILD_TYPE +
           ", not Release";
  }
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "DIALGA_", 7) == 0) {
      return std::string("environment sets ") + *e +
             " (run through run.py, which clears DIALGA_*)";
    }
  }
  if (fault::Injector::Global().active()) {
    return "a fault::Injector plan is installed";
  }
  return {};
}

std::string DataDirViolation(const std::filesystem::path& data_dir) {
  const std::string fs = FsType(data_dir);
  if (fs == "tmpfs" || fs == "ramfs") {
    return "the data directory " + data_dir.string() + " is on " + fs +
           ", not a disk-backed filesystem";
  }
  return {};
}

}  // namespace perfbench
