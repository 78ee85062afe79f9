// Strict parsing of environment and command-line input: every number,
// flag or enum a program reads from outside goes through here, so a
// value is either valid or rejected loudly — never silently zero.
//
// Parse* are full-string parses: false on empty input, trailing junk,
// a '-' on an unsigned value, overflow or NaN; blanks around the value
// are ignored; *out is written only on success.
//
// Env*: an unset or empty variable gives the default silently; a
// malformed value warns on stderr and gives the default; an
// out-of-range number warns and clamps to [lo, hi]. Each distinct
// (variable, value) pair warns once per process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

namespace common {

bool ParseU64(const char* s, std::uint64_t* out);  ///< decimal
bool ParseDouble(const char* s, double* out);       ///< strtod syntax
/// 1/0, true/false, on/off, yes/no, in any case.
bool ParseFlag(const char* s, bool* out);

std::uint64_t EnvUint64(const char* name, std::uint64_t def, std::uint64_t lo,
                        std::uint64_t hi);
std::size_t EnvSizeT(const char* name, std::size_t def, std::size_t lo,
                     std::size_t hi);
double EnvDouble(const char* name, double def, double lo, double hi);
bool EnvFlag(const char* name, bool def);

/// The variable's value, or nullptr when it is unset or empty.
const char* EnvValue(const char* name);
/// Prints "dialga: <name>='<raw>' <problem>" on stderr, once per
/// distinct (name, raw) pair.
void WarnMalformed(const char* name, const char* raw, const char* problem);

/// Enum-valued variable in its owner's vocabulary: `parse(const char*)`
/// returns std::optional<T>. An unknown spelling warns with `problem`
/// (which names the accepted spellings and the fallback) and gives def.
template <typename T, typename Parse>
T EnvEnum(const char* name, T def, Parse parse, const char* problem) {
  const char* raw = EnvValue(name);
  if (raw == nullptr) return def;
  if (const std::optional<T> v = parse(raw)) return *v;
  WarnMalformed(name, raw, problem);
  return def;
}

}  // namespace common
