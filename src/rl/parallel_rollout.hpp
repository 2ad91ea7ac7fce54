// Parallel rollout collection over environment replicas: the seed and
// stream derivations of one collection round, and the merge of its
// per-replica episodes into one PPO batch.
//
// Every replica's env seed and exploration stream derive from the round on
// the calling thread before any episode runs (independent of thread
// scheduling), and the merge preserves replica order — so a round is
// bit-reproducible for a fixed replica count however its episodes are
// scheduled (core/trainer.cpp runs them through the rollout engine).
#pragma once

#include <cstdint>
#include <vector>

#include "src/rl/rollout.hpp"
#include "src/util/rng.hpp"

namespace tsc::rl {

/// Concatenates per-replica episode buffers (identical agent rosters) into
/// one batch, preserving replica order. Each part must already be finished
/// (GAE run per episode) - advantages are per-trajectory quantities and
/// cannot be computed across the merge boundary.
RolloutBuffer merge_rollouts(std::vector<RolloutBuffer> parts);

/// Derives one round's env seeds and exploration streams from the round's
/// base seed: seed draw and split() interleaved per slot.
inline void derive_round_streams(std::uint64_t base_seed, std::size_t k,
                                 std::vector<std::uint64_t>& env_seeds,
                                 std::vector<Rng>& rngs) {
  Rng seeder(base_seed);
  env_seeds.clear();
  rngs.clear();
  env_seeds.reserve(k);
  rngs.reserve(k);
  for (std::size_t w = 0; w < k; ++w) {
    env_seeds.push_back(seeder());
    rngs.push_back(seeder.split());
  }
}

/// Worker-count-invariant variant: each slot's exploration stream derives
/// from its caller-chosen env seed alone (split() of a fresh Rng(seed)
/// decorrelates the exploration draws from the env's own Rng(seed) stream
/// while staying a pure function of the episode's seed).
inline void derive_seeded_streams(const std::vector<std::uint64_t>& env_seeds,
                                  std::vector<Rng>& rngs) {
  rngs.clear();
  rngs.reserve(env_seeds.size());
  for (std::uint64_t seed : env_seeds) {
    Rng derive(seed);
    rngs.push_back(derive.split());
  }
}

}  // namespace tsc::rl
