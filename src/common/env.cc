#include "common/env.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <string>

namespace common {

namespace {

bool IsBlank(char c) { return c == ' ' || c == '\t'; }

bool OnlyBlanks(const char* p) {
  while (IsBlank(*p)) ++p;
  return *p == '\0';
}

template <typename T>
std::string Str(T v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Default on malformed, clamp to [lo, hi] on out of range.
template <typename T>
T EnvNumber(const char* name, T def, T lo, T hi,
            bool (*parse)(const char*, T*), const char* kind) {
  const char* raw = EnvValue(name);
  if (raw == nullptr) return def;
  T v{};
  if (!parse(raw, &v)) {
    WarnMalformed(name, raw, ("is not a valid " + std::string(kind) +
                              "; using default " + Str(def)).c_str());
    return def;
  }
  if (v < lo || v > hi) {
    v = std::clamp(v, lo, hi);
    WarnMalformed(name, raw, ("out of range [" + Str(lo) + ", " + Str(hi) +
                              "]; clamping to " + Str(v)).c_str());
  }
  return v;
}

}  // namespace

bool ParseU64(const char* s, std::uint64_t* out) {
  if (s == nullptr) return false;
  while (IsBlank(*s)) ++s;
  if (*s == '-') return false;  // strtoull would wrap it
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || errno == ERANGE || !OnlyBlanks(end)) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool ParseDouble(const char* s, double* out) {
  if (s == nullptr) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || errno == ERANGE || !OnlyBlanks(end) || v != v) return false;
  *out = v;
  return true;
}

bool ParseFlag(const char* s, bool* out) {
  if (s == nullptr) return false;
  while (IsBlank(*s)) ++s;
  std::string v;
  for (; *s != '\0' && !IsBlank(*s); ++s) {
    v.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(*s))));
  }
  if (!OnlyBlanks(s)) return false;
  const bool on = v == "1" || v == "true" || v == "on" || v == "yes";
  if (!on && v != "0" && v != "false" && v != "off" && v != "no") return false;
  *out = on;
  return true;
}

const char* EnvValue(const char* name) {
  const char* raw = std::getenv(name);
  return raw != nullptr && *raw != '\0' ? raw : nullptr;
}

void WarnMalformed(const char* name, const char* raw, const char* problem) {
  static std::mutex mu;
  static std::set<std::string> warned;
  std::lock_guard<std::mutex> lk(mu);
  if (!warned.insert(std::string(name) + '=' + raw).second) return;
  std::fprintf(stderr, "dialga: %s='%s' %s\n", name, raw, problem);
}

std::uint64_t EnvUint64(const char* name, std::uint64_t def, std::uint64_t lo,
                        std::uint64_t hi) {
  return EnvNumber(name, def, lo, hi, ParseU64, "unsigned integer");
}

std::size_t EnvSizeT(const char* name, std::size_t def, std::size_t lo,
                     std::size_t hi) {
  return static_cast<std::size_t>(EnvUint64(
      name, def, lo,
      std::min<std::uint64_t>(hi, std::numeric_limits<std::size_t>::max())));
}

double EnvDouble(const char* name, double def, double lo, double hi) {
  return EnvNumber(name, def, lo, hi, ParseDouble, "number");
}

bool EnvFlag(const char* name, bool def) {
  const char* raw = EnvValue(name);
  bool v = def;
  if (raw != nullptr && !ParseFlag(raw, &v)) {
    WarnMalformed(name, raw, def ? "is not a valid flag; using default on"
                                 : "is not a valid flag; using default off");
  }
  return v;
}

}  // namespace common
