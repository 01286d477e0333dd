#include <gtest/gtest.h>

#include "common/env.hpp"

namespace swraman {
namespace {

TEST(EnvTruthy, UnsetEmptyAndOffSpellingsAreOff) {
  EXPECT_FALSE(env_truthy(nullptr));
  for (const char* off : {"", "0", "off", "OFF", "false", "no"}) {
    EXPECT_FALSE(env_truthy(off)) << '"' << off << '"';
  }
}

TEST(EnvTruthy, AnyOtherValueIsOn) {
  for (const char* on : {"1", "on", "true", "yes", "2", "anything"}) {
    EXPECT_TRUE(env_truthy(on)) << '"' << on << '"';
  }
}

}  // namespace
}  // namespace swraman
