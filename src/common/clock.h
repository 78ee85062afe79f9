// The one injectable clock. Every timed control loop (token buckets,
// cluster coordinator, bandwidth governor, selector plan-cache flush)
// takes a Clock: production runs on the steady clock, tests and seeded
// chaos runs drive the same code in deterministic virtual time.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>

namespace common {

/// Real() is the steady clock with a real sleep; Manual(&t) reads a
/// caller-owned counter whose sleep advances it, so a waiting loop
/// converges without wall-clock time passing.
struct Clock {
  std::function<std::uint64_t()> now_ns;
  std::function<void(std::uint64_t)> sleep_ns;

  static Clock Real() {
    return {[] {
              return static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
            },
            [](std::uint64_t ns) {
              std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
            }};
  }

  static Clock Manual(std::uint64_t* t) {
    return {[t] { return *t; }, [t](std::uint64_t ns) { *t += ns; }};
  }
};

}  // namespace common
