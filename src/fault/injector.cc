#include "fault/injector.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/env.h"
#include "obs/metrics.h"

namespace fault {

namespace {

// SplitMix64: the decision for operation #n of a site mixes the seed,
// the site name, and n, so schedules replay exactly for a fixed seed.
std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t HashName(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;
  }
  return h;
}

double Coin(std::uint64_t seed, std::uint64_t site_hash, std::uint64_t op) {
  const std::uint64_t bits = SplitMix64(seed ^ SplitMix64(site_hash ^ op));
  return static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
}

int ParseErrno(const std::string& name, bool* ok) {
  *ok = true;
  if (name == "EIO") return EIO;
  if (name == "EINTR") return EINTR;
  if (name == "EAGAIN") return EAGAIN;
  if (name == "ENOSPC") return ENOSPC;
  if (name == "ENOENT") return ENOENT;
  if (name == "EACCES") return EACCES;
  if (name == "ENOMEM") return ENOMEM;
  // Network-flavored errnos the cluster transport sites speak.
  if (name == "ETIMEDOUT") return ETIMEDOUT;
  if (name == "EHOSTUNREACH") return EHOSTUNREACH;
  if (name == "ECONNRESET") return ECONNRESET;
  if (name == "EBADMSG") return EBADMSG;
  std::uint64_t v = 0;
  if (!common::ParseU64(name.c_str(), &v) || v == 0 ||
      v > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    *ok = false;
    return 0;
  }
  return static_cast<int>(v);
}

}  // namespace

namespace {

/// Publishes the injector's per-site tallies into the process metrics
/// registry as scrape-time samples — the injector keeps its own
/// counters (they reset when a plan is reinstalled), so a collector is
/// the honest export path. Registered after the Injector static local
/// and therefore destroyed before it, which unregisters the collector
/// while the injector is still alive.
struct CollectorRegistration {
  explicit CollectorRegistration(Injector* in) : in_(in) {
    obs::Registry::Global().add_collector(
        in_, [in = in_](std::vector<obs::Sample>& out) {
          for (const auto& [site, st] : in->all_stats()) {
            obs::Sample ops;
            ops.name = "dialga_fault_ops_total";
            ops.labels = {{"site", site}};
            ops.type = obs::MetricType::kCounter;
            ops.value = static_cast<double>(st.ops);
            out.push_back(std::move(ops));
            obs::Sample fires;
            fires.name = "dialga_fault_fires_total";
            fires.labels = {{"site", site}};
            fires.type = obs::MetricType::kCounter;
            fires.value = static_cast<double>(st.fires);
            out.push_back(std::move(fires));
          }
        });
  }
  ~CollectorRegistration() {
    obs::Registry::Global().remove_collector(in_);
  }
  Injector* in_;
};

}  // namespace

Injector& Injector::Global() {
  static Injector instance;
  static CollectorRegistration registration(&instance);
  (void)registration;
  return instance;
}

void Injector::set_seed(std::uint64_t seed) {
  std::lock_guard<std::mutex> lk(mu_);
  seed_ = seed;
}

std::uint64_t Injector::seed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return seed_;
}

void Injector::install(const std::string& site, SitePlan plan) {
  std::lock_guard<std::mutex> lk(mu_);
  if (plan.error == 0) plan.error = EIO;  // fire() reports via errno
  std::sort(plan.nth.begin(), plan.nth.end());
  sites_[site] = Site{std::move(plan), 0, 0};
  active_.store(true, std::memory_order_relaxed);
}

void Injector::remove(const std::string& site) {
  std::lock_guard<std::mutex> lk(mu_);
  sites_.erase(site);
  if (sites_.empty()) active_.store(false, std::memory_order_relaxed);
}

void Injector::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  sites_.clear();
  seed_ = 0;
  active_.store(false, std::memory_order_relaxed);
}

namespace {

/// Shared trigger evaluation for errno and corruption plans: operation
/// #op fires if it is in nth, a multiple of every, or under the seeded
/// coin.
bool PlanHit(const SitePlan& plan, std::uint64_t seed,
             std::uint64_t site_hash, std::uint64_t op) {
  if (plan.every != 0 && op % plan.every == 0) return true;
  if (std::binary_search(plan.nth.begin(), plan.nth.end(), op)) return true;
  return plan.probability > 0.0 &&
         Coin(seed, site_hash, op) < plan.probability;
}

}  // namespace

int Injector::fire(const std::string& site) {
  if (!active()) return 0;
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = sites_.find(site);
  if (it == sites_.end()) return 0;
  Site& s = it->second;
  const std::uint64_t op = ++s.ops;  // 1-based operation number
  // Corruption-mode plans never surface as an errno: their ops still
  // count (a consult is a consult), but only fire_corruption() fires.
  if (s.plan.corrupt != CorruptKind::kNone) return 0;
  if (s.fires >= s.plan.max_fires) return 0;
  if (!PlanHit(s.plan, seed_, HashName(site), op)) return 0;
  ++s.fires;
  return s.plan.error;
}

std::optional<Corruption> Injector::fire_corruption(const std::string& site) {
  if (!active()) return std::nullopt;
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = sites_.find(site);
  if (it == sites_.end()) return std::nullopt;
  Site& s = it->second;
  const std::uint64_t op = ++s.ops;  // 1-based operation number
  if (s.plan.corrupt == CorruptKind::kNone) return std::nullopt;
  if (s.fires >= s.plan.max_fires) return std::nullopt;
  const std::uint64_t site_hash = HashName(site);
  if (!PlanHit(s.plan, seed_, site_hash, op)) return std::nullopt;
  ++s.fires;
  Corruption c;
  c.kind = s.plan.corrupt;
  // Token derivation is decoupled from the Coin bits (extra SplitMix64
  // round over a different combination) so trigger and mutation draw
  // independent randomness while staying a pure function of
  // (seed, site, op#).
  c.token = SplitMix64(SplitMix64(seed_ ^ site_hash) ^
                       (op * 0x9e3779b97f4a7c15ull));
  c.span = s.plan.corrupt_span;
  return c;
}

bool ApplyCorruption(const Corruption& c, void* data, std::size_t n) {
  if (n == 0 || c.kind == CorruptKind::kNone || data == nullptr) {
    return false;
  }
  auto* bytes = static_cast<unsigned char*>(data);
  switch (c.kind) {
    case CorruptKind::kBitFlip: {
      const std::size_t pos = static_cast<std::size_t>(c.token % n);
      bytes[pos] ^=
          static_cast<unsigned char>(1u << ((c.token >> 56) & 7u));
      return true;
    }
    case CorruptKind::kTorn: {
      const std::size_t span =
          std::min<std::size_t>(std::max<std::uint32_t>(c.span, 1), n);
      const std::size_t pos =
          static_cast<std::size_t>(c.token % (n - span + 1));
      std::uint64_t x = c.token;
      bool changed = false;
      for (std::size_t i = 0; i < span; ++i) {
        x = SplitMix64(x);
        const auto b = static_cast<unsigned char>(x);
        if (bytes[pos + i] != b) changed = true;
        bytes[pos + i] = b;
      }
      return changed;
    }
    case CorruptKind::kStaleZero: {
      const std::size_t span =
          std::min<std::size_t>(std::max<std::uint32_t>(c.span, 1), n);
      const std::size_t pos =
          static_cast<std::size_t>(c.token % (n - span + 1));
      bool changed = false;
      for (std::size_t i = 0; i < span; ++i) {
        if (bytes[pos + i] != 0) changed = true;
        bytes[pos + i] = 0;
      }
      return changed;
    }
    case CorruptKind::kNone:
      break;
  }
  return false;
}

SiteStats Injector::stats(const std::string& site) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = sites_.find(site);
  if (it == sites_.end()) return {};
  return {it->second.ops, it->second.fires};
}

std::vector<std::pair<std::string, SiteStats>> Injector::all_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::pair<std::string, SiteStats>> out;
  out.reserve(sites_.size());
  for (const auto& [name, s] : sites_) {
    out.emplace_back(name, SiteStats{s.ops, s.fires});
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

bool Injector::install_spec(const std::string& spec, std::string* error_out) {
  const auto fail = [&](const std::string& why) {
    if (error_out != nullptr) *error_out = why;
    return false;
  };
  std::istringstream entries(spec);
  std::string entry;
  while (std::getline(entries, entry, ';')) {
    if (entry.empty()) continue;
    // Global knob: "seed=N" (no site prefix).
    if (entry.rfind("seed=", 0) == 0) {
      std::uint64_t v = 0;
      if (!common::ParseU64(entry.c_str() + 5, &v)) {
        return fail("bad seed: '" + entry + "'");
      }
      set_seed(v);
      continue;
    }
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0) {
      return fail("expected 'site:key=value,...' in '" + entry + "'");
    }
    const std::string site = entry.substr(0, colon);
    SitePlan plan;
    std::istringstream kvs(entry.substr(colon + 1));
    std::string kv;
    while (std::getline(kvs, kv, ',')) {
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        return fail("expected key=value in '" + kv + "'");
      }
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      if (key == "p") {
        if (!common::ParseDouble(value.c_str(), &plan.probability) ||
            plan.probability < 0.0 || plan.probability > 1.0) {
          return fail("bad probability '" + value + "' for " + site);
        }
      } else if (key == "nth") {
        // "+"-separated 1-based operation numbers: nth=2+5+9.
        std::istringstream ns(value);
        std::string n;
        while (std::getline(ns, n, '+')) {
          std::uint64_t v = 0;
          if (!common::ParseU64(n.c_str(), &v) || v == 0) {
            return fail("bad nth '" + n + "' for " + site);
          }
          plan.nth.push_back(v);
        }
        if (plan.nth.empty()) return fail("empty nth for " + site);
      } else if (key == "every") {
        if (!common::ParseU64(value.c_str(), &plan.every) || plan.every == 0) {
          return fail("bad every '" + value + "' for " + site);
        }
      } else if (key == "max") {
        if (!common::ParseU64(value.c_str(), &plan.max_fires)) {
          return fail("bad max '" + value + "' for " + site);
        }
      } else if (key == "err") {
        bool ok = false;
        plan.error = ParseErrno(value, &ok);
        if (!ok) return fail("bad err '" + value + "' for " + site);
      } else if (key == "corrupt") {
        if (value == "bitflip") {
          plan.corrupt = CorruptKind::kBitFlip;
        } else if (value == "torn") {
          plan.corrupt = CorruptKind::kTorn;
        } else if (value == "zero") {
          plan.corrupt = CorruptKind::kStaleZero;
        } else {
          return fail("bad corrupt kind '" + value + "' for " + site +
                      " (want bitflip|torn|zero)");
        }
      } else if (key == "span") {
        std::uint64_t v = 0;
        if (!common::ParseU64(value.c_str(), &v) || v == 0 ||
            v > (1ull << 20)) {
          return fail("bad span '" + value + "' for " + site);
        }
        plan.corrupt_span = static_cast<std::uint32_t>(v);
      } else {
        return fail("unknown key '" + key + "' for " + site);
      }
    }
    if (plan.probability == 0.0 && plan.nth.empty() && plan.every == 0) {
      return fail("plan for " + site + " has no trigger (p/nth/every)");
    }
    install(site, std::move(plan));
  }
  return true;
}

std::string Injector::describe() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (sites_.empty()) return "";
  std::vector<const std::pair<const std::string, Site>*> ordered;
  ordered.reserve(sites_.size());
  for (const auto& entry : sites_) ordered.push_back(&entry);
  std::sort(ordered.begin(), ordered.end(), [](const auto* a, const auto* b) {
    return a->first < b->first;
  });
  std::ostringstream out;
  out << "seed=" << seed_;
  for (const auto* entry : ordered) {
    const SitePlan& p = entry->second.plan;
    out << ';' << entry->first << ':';
    bool first = true;
    const auto sep = [&]() -> std::ostream& {
      if (!first) out << ',';
      first = false;
      return out;
    };
    if (p.probability > 0.0) {
      sep() << "p=" << std::setprecision(17) << p.probability;
    }
    if (!p.nth.empty()) {
      sep() << "nth=";
      for (std::size_t i = 0; i < p.nth.size(); ++i) {
        if (i != 0) out << '+';
        out << p.nth[i];
      }
    }
    if (p.every != 0) sep() << "every=" << p.every;
    if (p.max_fires != ~std::uint64_t{0}) sep() << "max=" << p.max_fires;
    if (p.corrupt != CorruptKind::kNone) {
      const char* kind = p.corrupt == CorruptKind::kBitFlip ? "bitflip"
                         : p.corrupt == CorruptKind::kTorn  ? "torn"
                                                            : "zero";
      sep() << "corrupt=" << kind;
      if (p.corrupt != CorruptKind::kBitFlip) {
        sep() << "span=" << p.corrupt_span;
      }
    } else if (p.error != EIO) {
      sep() << "err=" << p.error;
    }
  }
  return out.str();
}

bool Injector::install_from_env(std::string* error_out) {
  // A malformed seed warns and keeps the current one: two differently
  // typo'd CI legs must not both run seed 0.
  set_seed(common::EnvUint64("DIALGA_FAULT_SEED", seed(), 0,
                             std::numeric_limits<std::uint64_t>::max()));
  if (const char* plan = std::getenv("DIALGA_FAULT_PLAN")) {
    return install_spec(plan, error_out);
  }
  return true;
}

}  // namespace fault
