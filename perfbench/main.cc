// Repository benchmark binary. One process runs one workload:
//
//   perfbench --workload file_roundtrip|service_mix|cluster_degraded
//             --seed N --seconds S --trace 0|1 --data-dir DIR
//             [--tiny] [--corrupt-expected] [--setup-only]
//
// It prints a human-readable report and, as its last line, one JSON
// object with every metric (value, unit, samples), the attribution
// block, the machine fingerprint and notes. run.py builds this binary,
// clears the DIALGA_* environment, and turns that line into the
// benchmark result. With --setup-only it only constructs the
// workload's system once and reports the CPU time of that as setup_s
// and its wall time as setup_wall_s; run.py takes the medians over
// several such processes. Exit status: 0 clean,
// 1 wrong output or failed run, 2 usage or refusal.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "common.h"
#include "obs/trace.h"

namespace {

using perfbench::Args;
using perfbench::Report;

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : -1e300;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string ToJson(const Args& a, const Report& r) {
  std::ostringstream os;
  os << "{\"workload\":" << Quote(a.workload) << ",\"seed\":" << a.seed
     << ",\"trace\":" << (a.trace ? 1 : 0)
     << ",\"correct\":" << (r.correct ? "true" : "false")
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"metrics\":{";
  const char* sep = "";
  for (const auto& [name, m] : r.metrics) {
    os << sep << Quote(name) << ":{\"value\":" << Num(m.value)
       << ",\"unit\":" << Quote(m.unit) << ",\"samples\":" << m.samples << "}";
    sep = ",";
  }
  os << "},\"attribution\":{";
  sep = "";
  for (const auto& [block, fields] : r.attribution) {
    os << sep << Quote(block) << ":{";
    const char* fsep = "";
    for (const auto& [k, v] : fields) {
      os << fsep << Quote(k) << ":" << Num(v);
      fsep = ",";
    }
    os << "}";
    sep = ",";
  }
  os << "},\"info\":{";
  sep = "";
  for (const auto& [k, v] : r.info) {
    os << sep << Quote(k) << ":" << Quote(v);
    sep = ",";
  }
  os << "},\"notes\":[";
  sep = "";
  for (const std::string& n : r.notes) {
    os << sep << Quote(n);
    sep = ",";
  }
  os << "]}";
  return os.str();
}

int Usage(const char* why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --data-dir DIR [--tiny] [--corrupt-expected] "
               "[--setup-only]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--tiny") {
      args.tiny = true;
    } else if (a == "--corrupt-expected") {
      args.corrupt_expected = true;
    } else if (a == "--setup-only") {
      args.setup_only = true;
    } else if ((v = value()) == nullptr) {
      return Usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      char* end = nullptr;
      args.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return Usage("--seed takes an integer");
    } else if (a == "--seconds") {
      char* end = nullptr;
      args.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0') return Usage("--seconds takes a number");
    } else if (a == "--trace") {
      if (std::string(v) != "0" && std::string(v) != "1") {
        return Usage("--trace takes 0 or 1");
      }
      args.trace = std::string(v) == "1";
    } else if (a == "--data-dir") {
      args.data_dir = v;
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (args.data_dir.empty() || !(args.seconds > 0)) {
    return Usage("--data-dir and a positive --seconds are required");
  }
  std::string why = perfbench::HermeticViolation();
  if (why.empty() && args.workload == "file_roundtrip") {
    why = perfbench::DataDirViolation(args.data_dir);
  }
  if (!why.empty()) {
    std::cerr << "perfbench: refusing to run: " << why << "\n";
    return 2;
  }
  obs::Tracer::Global().set_enabled(false);
  std::error_code ec;
  std::filesystem::create_directories(args.data_dir, ec);

  int (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "file_roundtrip") run = perfbench::RunFileRoundtrip;
  if (args.workload == "service_mix") run = perfbench::RunServiceMix;
  if (args.workload == "cluster_degraded") run = perfbench::RunClusterDegraded;
  if (run == nullptr) return Usage("unknown --workload");

  Report r;
  const int rc = run(args, &r);
  r.set("peak_rss_mib", perfbench::PeakRssMiB(), "MiB");
  r.set("error_ratio",
        r.attempted > 0 ? static_cast<double>(r.failed) /
                              static_cast<double>(r.attempted)
                        : 1.0,
        "failed/attempted", r.attempted);
  if (args.trace) perfbench::EnsureLayerDefaults(&r);

  std::cout << "workload " << args.workload << " seed " << args.seed
            << (args.trace ? " (traced)" : "") << "\n";
  for (const auto& [k, v] : r.info) std::cout << "  info  " << k << ": " << v << "\n";
  for (const auto& [name, m] : r.metrics) {
    std::cout << "  metric " << name << " = " << Num(m.value) << " " << m.unit
              << " (n=" << m.samples << ")\n";
  }
  for (const auto& [block, fields] : r.attribution) {
    std::cout << "  attribution " << block << ":";
    for (const auto& [k, v] : fields) std::cout << " " << k << "=" << Num(v);
    std::cout << "\n";
  }
  for (const std::string& n : r.notes) std::cout << "  note  " << n << "\n";
  std::cout << "  attempted " << r.attempted << " failed " << r.failed
            << " correct " << (r.correct ? "yes" : "NO") << "\n";
  std::cout << ToJson(args, r) << std::endl;
  return rc != 0 || !r.correct || r.failed > 0 ? 1 : 0;
}
