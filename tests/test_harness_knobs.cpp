// The bench harness's PAIRUP_* environment knobs (bench/harness.hpp) parse
// strictly: a malformed number is an error naming the variable, never the
// silent prefix or 0 that std::atof / std::atoll would make of it.
#include "bench/harness.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace tsc::bench {
namespace {

/// Sets one environment variable for the lifetime of the guard.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

/// The message load_config() throws with, or "" when it does not throw.
std::string load_error() {
  try {
    load_config(HarnessConfig{});
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(HarnessKnobs, MalformedNumbersThrowNamingTheVariable) {
  const struct {
    const char* name;
    const char* value;
  } cases[] = {
      {"PAIRUP_EPISODES", "1O"},   // std::atoll reads 1
      {"PAIRUP_EPISODES", "ten"},  // std::atoll reads 0
      {"PAIRUP_EPISODES", "-3"},
      {"PAIRUP_SEED", "7 "},
      {"PAIRUP_NUM_ENVS", "4x"},
      {"PAIRUP_NUM_UPDATE_SHARDS", ""},
      {"PAIRUP_TIME_SCALE", "0.5s"},
      {"PAIRUP_EPISODE_SECONDS", "1e999"},
  };
  for (const auto& c : cases) {
    ScopedEnv env(c.name, c.value);
    const std::string error = load_error();
    EXPECT_NE(error.find(c.name), std::string::npos)
        << c.name << "=\"" << c.value << "\" gave: \"" << error << "\"";
    EXPECT_NE(error.find(std::string("\"") + c.value + "\""), std::string::npos)
        << error;
  }
}

TEST(HarnessKnobs, WellFormedNumbersOverrideDefaults) {
  ScopedEnv episodes("PAIRUP_EPISODES", "10");
  ScopedEnv seconds("PAIRUP_EPISODE_SECONDS", "120.5");
  const HarnessConfig config = load_config(HarnessConfig{});
  EXPECT_EQ(config.episodes, 10u);
  EXPECT_EQ(config.episode_seconds, 120.5);
  EXPECT_EQ(config.num_envs, 1u);  // unset knobs keep their defaults
}

}  // namespace
}  // namespace tsc::bench
