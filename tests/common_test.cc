// The shared input parsers and the injectable clock in src/common/.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "common/clock.h"
#include "common/env.h"

namespace {

std::size_t Lines(const std::string& s) {
  std::size_t n = 0;
  for (const char c : s) n += c == '\n';
  return n;
}

struct U64Case {
  const char* in;
  std::optional<std::uint64_t> want;
};

TEST(CommonParse, U64Table) {
  const U64Case cases[] = {
      {"0", 0},
      {"42", 42},
      {"18446744073709551615", std::numeric_limits<std::uint64_t>::max()},
      {" 42\t", 42},             // blanks around the value are ignored
      {"", std::nullopt},        // empty
      {"   ", std::nullopt},     // blanks only
      {"8x", std::nullopt},      // trailing junk
      {"4 2", std::nullopt},     // junk after a blank
      {"abc", std::nullopt},
      {"-1", std::nullopt},      // strtoull would wrap it to 2^64 - 1
      {" -0", std::nullopt},
      {"18446744073709551616", std::nullopt},  // u64 overflow
      {"1.5", std::nullopt},
      {"nan", std::nullopt},
  };
  for (const U64Case& c : cases) {
    std::uint64_t v = 7;
    const bool ok = common::ParseU64(c.in, &v);
    EXPECT_EQ(ok, c.want.has_value()) << "'" << c.in << "'";
    if (c.want) {
      EXPECT_EQ(v, *c.want) << "'" << c.in << "'";
    } else {
      EXPECT_EQ(v, 7u) << "a rejected parse must not write: '" << c.in << "'";
    }
  }
  std::uint64_t v = 0;
  EXPECT_FALSE(common::ParseU64(nullptr, &v));
}

struct DoubleCase {
  const char* in;
  std::optional<double> want;
};

TEST(CommonParse, DoubleTable) {
  const DoubleCase cases[] = {
      {"0", 0.0},
      {"1.5", 1.5},
      {"-2.25", -2.25},  // sign is the caller's range check
      {"1e3", 1000.0},
      {" 0.5\t", 0.5},
      {"inf", std::numeric_limits<double>::infinity()},
      {"", std::nullopt},
      {"1.5x", std::nullopt},
      {"abc", std::nullopt},
      {"NaN", std::nullopt},
      {"nan", std::nullopt},
      {"1e999", std::nullopt},  // overflow
  };
  for (const DoubleCase& c : cases) {
    double v = 7.0;
    const bool ok = common::ParseDouble(c.in, &v);
    EXPECT_EQ(ok, c.want.has_value()) << "'" << c.in << "'";
    if (c.want) {
      EXPECT_EQ(v, *c.want) << "'" << c.in << "'";
    } else {
      EXPECT_EQ(v, 7.0) << "a rejected parse must not write: '" << c.in << "'";
    }
  }
}

TEST(CommonParse, FlagTableEveryWordInMixedCase) {
  for (const char* on : {"1", "true", "TRUE", "True", "tRuE", "on", "ON",
                         "On", "yes", "YES", "Yes", " on\t"}) {
    bool v = false;
    EXPECT_TRUE(common::ParseFlag(on, &v)) << "'" << on << "'";
    EXPECT_TRUE(v) << "'" << on << "'";
  }
  for (const char* off : {"0", "false", "FALSE", "False", "fAlSe", "off",
                          "OFF", "Off", "no", "NO", "No", " off "}) {
    bool v = true;
    EXPECT_TRUE(common::ParseFlag(off, &v)) << "'" << off << "'";
    EXPECT_FALSE(v) << "'" << off << "'";
  }
  for (const char* bad : {"", "2", "-1", "enable", "y", "n", "onx", "truth",
                          "nan"}) {
    bool v = true;
    EXPECT_FALSE(common::ParseFlag(bad, &v)) << "'" << bad << "'";
    EXPECT_TRUE(v) << "a rejected parse must not write: '" << bad << "'";
  }
}

TEST(CommonEnv, UnsetOrEmptyGivesDefaultSilently) {
  ::unsetenv("DIALGA_COMMON_TEST_UNSET");
  testing::internal::CaptureStderr();
  EXPECT_EQ(common::EnvUint64("DIALGA_COMMON_TEST_UNSET", 5, 0, 10), 5u);
  EXPECT_EQ(common::EnvDouble("DIALGA_COMMON_TEST_UNSET", 0.5, 0, 1), 0.5);
  EXPECT_TRUE(common::EnvFlag("DIALGA_COMMON_TEST_UNSET", true));
  ::setenv("DIALGA_COMMON_TEST_UNSET", "", 1);
  EXPECT_EQ(common::EnvSizeT("DIALGA_COMMON_TEST_UNSET", 3, 0, 10), 3u);
  EXPECT_FALSE(common::EnvFlag("DIALGA_COMMON_TEST_UNSET", false));
  EXPECT_EQ(common::EnvValue("DIALGA_COMMON_TEST_UNSET"), nullptr);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  ::unsetenv("DIALGA_COMMON_TEST_UNSET");
}

TEST(CommonEnv, WellFormedValuesAreTakenSilently) {
  testing::internal::CaptureStderr();
  ::setenv("DIALGA_COMMON_TEST_OK_U64", " 9 ", 1);
  EXPECT_EQ(common::EnvUint64("DIALGA_COMMON_TEST_OK_U64", 5, 0, 10), 9u);
  ::setenv("DIALGA_COMMON_TEST_OK_FLAG", "Off", 1);
  EXPECT_FALSE(common::EnvFlag("DIALGA_COMMON_TEST_OK_FLAG", true));
  ::setenv("DIALGA_COMMON_TEST_OK_DBL", "0.25", 1);
  EXPECT_EQ(common::EnvDouble("DIALGA_COMMON_TEST_OK_DBL", 1.0, 0.0, 2.0),
            0.25);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  ::unsetenv("DIALGA_COMMON_TEST_OK_U64");
  ::unsetenv("DIALGA_COMMON_TEST_OK_FLAG");
  ::unsetenv("DIALGA_COMMON_TEST_OK_DBL");
}

TEST(CommonEnv, MalformedGivesDefaultAndOneStderrLine) {
  ::setenv("DIALGA_COMMON_TEST_BAD_U64", "8x", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(common::EnvUint64("DIALGA_COMMON_TEST_BAD_U64", 5, 0, 10), 5u);
  // Read again: same value, no second line.
  EXPECT_EQ(common::EnvUint64("DIALGA_COMMON_TEST_BAD_U64", 5, 0, 10), 5u);
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(Lines(err), 1u) << err;
  EXPECT_NE(err.find("DIALGA_COMMON_TEST_BAD_U64='8x'"), std::string::npos)
      << err;

  ::setenv("DIALGA_COMMON_TEST_BAD_DBL", "NaN", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(common::EnvDouble("DIALGA_COMMON_TEST_BAD_DBL", 0.5, 0, 1), 0.5);
  err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(Lines(err), 1u) << err;

  ::setenv("DIALGA_COMMON_TEST_BAD_FLAG", "maybe", 1);
  testing::internal::CaptureStderr();
  EXPECT_TRUE(common::EnvFlag("DIALGA_COMMON_TEST_BAD_FLAG", true));
  EXPECT_FALSE(common::EnvFlag("DIALGA_COMMON_TEST_BAD_FLAG", false));
  err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(Lines(err), 1u) << err;

  ::setenv("DIALGA_COMMON_TEST_BAD_NEG", "-1", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(common::EnvSizeT("DIALGA_COMMON_TEST_BAD_NEG", 4, 1, 8), 4u);
  err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(Lines(err), 1u) << err;

  for (const char* name :
       {"DIALGA_COMMON_TEST_BAD_U64", "DIALGA_COMMON_TEST_BAD_DBL",
        "DIALGA_COMMON_TEST_BAD_FLAG", "DIALGA_COMMON_TEST_BAD_NEG"}) {
    ::unsetenv(name);
  }
}

TEST(CommonEnv, OutOfRangeClampsWithOneStderrLine) {
  ::setenv("DIALGA_COMMON_TEST_HI", "99", 1);
  ::setenv("DIALGA_COMMON_TEST_LO", "0", 1);
  ::setenv("DIALGA_COMMON_TEST_DHI", "3.5", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(common::EnvUint64("DIALGA_COMMON_TEST_HI", 5, 1, 10), 10u);
  EXPECT_EQ(common::EnvSizeT("DIALGA_COMMON_TEST_LO", 5, 1, 10), 1u);
  EXPECT_EQ(common::EnvDouble("DIALGA_COMMON_TEST_DHI", 1.0, 0.0, 2.0), 2.0);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(Lines(err), 3u) << err;
  EXPECT_NE(err.find("clamping to 10"), std::string::npos) << err;
  ::unsetenv("DIALGA_COMMON_TEST_HI");
  ::unsetenv("DIALGA_COMMON_TEST_LO");
  ::unsetenv("DIALGA_COMMON_TEST_DHI");
}

enum class Color { kRed, kBlue };

std::optional<Color> ParseColor(const char* s) {
  if (std::string(s) == "red") return Color::kRed;
  if (std::string(s) == "blue") return Color::kBlue;
  return std::nullopt;
}

TEST(CommonEnv, EnumUsesTheOwnersVocabulary) {
  constexpr const char* kName = "DIALGA_COMMON_TEST_ENUM";
  constexpr const char* kProblem = "is not one of red|blue; using red";
  ::unsetenv(kName);
  testing::internal::CaptureStderr();
  EXPECT_EQ(common::EnvEnum(kName, Color::kRed, ParseColor, kProblem),
            Color::kRed);
  ::setenv(kName, "blue", 1);
  EXPECT_EQ(common::EnvEnum(kName, Color::kRed, ParseColor, kProblem),
            Color::kBlue);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  ::setenv(kName, "green", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(common::EnvEnum(kName, Color::kRed, ParseColor, kProblem),
            Color::kRed);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "dialga: DIALGA_COMMON_TEST_ENUM='green' is not one of red|blue; "
            "using red\n");
  ::unsetenv(kName);
}

TEST(CommonClock, ManualSleepAdvancesNow) {
  std::uint64_t t = 100;
  const common::Clock clock = common::Clock::Manual(&t);
  EXPECT_EQ(clock.now_ns(), 100u);
  clock.sleep_ns(250);
  EXPECT_EQ(clock.now_ns(), 350u);
  EXPECT_EQ(t, 350u);
  t = 1000;  // the caller owns the counter
  EXPECT_EQ(clock.now_ns(), 1000u);
}

TEST(CommonClock, RealIsMonotonic) {
  const common::Clock clock = common::Clock::Real();
  const std::uint64_t a = clock.now_ns();
  clock.sleep_ns(1000);
  EXPECT_GT(clock.now_ns(), a);
}

}  // namespace
