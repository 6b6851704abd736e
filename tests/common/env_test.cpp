// env_bool accepts exactly six spellings and rejects everything else,
// naming the knob.
#include "common/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "common/check.hpp"

namespace dmis {
namespace {

constexpr const char* kKnob = "DMIS_ENV_TEST_KNOB";

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override { ::unsetenv(kKnob); }
};

TEST_F(EnvTest, BoolUnsetOrEmptyIsNullopt) {
  ::unsetenv(kKnob);
  EXPECT_FALSE(env_bool(kKnob).has_value());
  ::setenv(kKnob, "", 1);
  EXPECT_FALSE(env_bool(kKnob).has_value());
}

TEST_F(EnvTest, BoolAcceptsExactlySixSpellings) {
  for (const char* on : {"1", "true", "on"}) {
    ::setenv(kKnob, on, 1);
    EXPECT_EQ(env_bool(kKnob), std::optional<bool>(true)) << on;
  }
  for (const char* off : {"0", "false", "off"}) {
    ::setenv(kKnob, off, 1);
    EXPECT_EQ(env_bool(kKnob), std::optional<bool>(false)) << off;
  }
}

TEST_F(EnvTest, BoolRejectsAnythingElseNamingTheKnob) {
  for (const char* bad :
       {"no", "yes", "disabled", "TRUE", "On", "2", "1 ", " 0", "ture"}) {
    ::setenv(kKnob, bad, 1);
    try {
      (void)env_bool(kKnob);
      ADD_FAILURE() << "'" << bad << "' was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(kKnob), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace dmis
