// FNV-1a digests over the raw bytes of recorded values, for goldens that
// must pin every bit of a rollout (tests/test_rollout_goldens.cpp,
// tests/test_kernel_tiers.cpp).
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/rl/rollout.hpp"

namespace tsc::test {

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
  void add(const std::vector<double>& v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (double x : v) add(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Every field of every sample, agent by agent.
inline std::uint64_t digest(const rl::RolloutBuffer& buffer) {
  Digest d;
  d.add(static_cast<std::uint64_t>(buffer.num_agents()));
  for (std::size_t i = 0; i < buffer.num_agents(); ++i) {
    const auto& samples = buffer.agent_samples(i);
    d.add(static_cast<std::uint64_t>(samples.size()));
    for (const rl::Sample& s : samples) {
      d.add(s.obs);
      d.add(s.critic_obs);
      d.add(s.h_actor);
      d.add(s.c_actor);
      d.add(s.h_critic);
      d.add(s.c_critic);
      d.add(static_cast<std::uint64_t>(s.action));
      d.add(static_cast<std::uint64_t>(s.phase_count));
      d.add(s.log_prob);
      d.add(s.value);
      d.add(s.reward);
      d.add(s.advantage);
      d.add(s.ret);
    }
  }
  return d.value();
}

}  // namespace tsc::test
