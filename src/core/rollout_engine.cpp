#include "src/core/rollout_engine.hpp"

#include <algorithm>
#include <cassert>

namespace tsc::core {

using tsc::nn::Tensor;

std::size_t pick_partner(const env::TscEnv& env, const PairUpConfig& config,
                         Rng* rng, std::size_t agent) {
  const auto& upstream = env.agent(agent).upstream;
  switch (config.pairing) {
    case PairingStrategy::kMostCongestedUpstream:
      return env.most_congested_upstream(agent);
    case PairingStrategy::kSelf:
      return agent;
    case PairingStrategy::kRandomNeighbor:
      if (upstream.empty()) return agent;
      return upstream[rng->uniform_int(upstream.size())];
    case PairingStrategy::kFixedUpstream:
      return upstream.empty() ? agent : upstream.front();
  }
  return agent;
}

RolloutEngine::RolloutEngine(const PairUpConfig& config,
                             std::vector<const CoordinatedActor*> actors,
                             std::vector<const CentralizedCritic*> critics,
                             std::size_t hop1_slots, std::size_t hop2_slots)
    : config_(config),
      actors_(std::move(actors)),
      critics_(std::move(critics)),
      hop1_slots_(hop1_slots),
      hop2_slots_(hop2_slots) {
  assert(!actors_.empty() && actors_.size() == critics_.size());
  ws_.set_kernel_tier(config_.kernel_tier);
}

void RolloutEngine::reshape_slab(Tensor& slab, std::size_t rows,
                                 std::size_t cols) {
  const std::size_t cap_before = slab.values().capacity();
  slab.reshape(rows, cols);
  if (slab.values().capacity() != cap_before) ++slab_events_;
}

void RolloutEngine::prepare(std::size_t k, std::size_t n) {
  const std::size_t hidden = config_.hidden;

  // Buckets: one per model — all agents under parameter sharing, one agent
  // per bucket on heterogeneous networks (each agent's own model).
  groups_.resize(actors_.size());
  for (auto& g : groups_) g.clear();
  pos_in_bucket_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t m = config_.parameter_sharing ? 0 : i;
    pos_in_bucket_[i] = groups_[m].size();
    groups_[m].push_back(i);
  }
  bucket_slots_.resize(actors_.size());

  reshape_slab(h_a_, k * n, hidden);
  reshape_slab(c_a_, k * n, hidden);
  reshape_slab(h_v_, k * n, hidden);
  reshape_slab(c_v_, k * n, hidden);
  reshape_slab(msg_, k * n, config_.msg_dim);
  h_a_.fill(0.0);
  c_a_.fill(0.0);
  h_v_.fill(0.0);
  c_v_.fill(0.0);
  msg_.fill(0.0);

  envs_.resize(k);
  rngs_.resize(k);
  sample_rngs_.resize(k);
  buffers_.resize(k);
  actions_.resize(k);
  values_.resize(k);
  partners_.resize(k);
  for (std::size_t w = 0; w < k; ++w) {
    actions_[w].resize(n);
    values_[w].resize(n);
    partners_[w].resize(n);
  }
}

void RolloutEngine::decide(const std::vector<std::size_t>& active, bool explore,
                           bool record) {
  const std::size_t num_active = active.size();
  const env::TscEnv& env0 = *envs_[active.front()];
  const std::size_t n = env0.num_agents();
  const std::size_t hidden = config_.hidden;
  const std::size_t msg_dim = config_.msg_dim;
  const std::size_t obs_dim = env0.obs_dim();
  const std::size_t actor_in_dim = obs_dim + msg_dim;
  const std::size_t critic_in_dim = critics_.front()->input_dim();

  // Phase 1 — partner picks, slot-ascending then agent-ascending: each
  // slot's stream is consumed in agent order.
  for (std::size_t w : active)
    for (std::size_t i = 0; i < n; ++i)
      partners_[w][i] = pick_partner(*envs_[w], config_, rngs_[w], i);

  // Phase 2 — acquire every bucket's batch tensors, then pack ALL input
  // rows before any forward runs: everyone reads the PREVIOUS step's
  // messages (this matters when agents span several buckets, since a
  // bucket's scatter updates its message rows).
  ws_.begin_pass();
  for (std::size_t m = 0; m < groups_.size(); ++m) {
    if (groups_[m].empty()) continue;
    const std::size_t rows = num_active * groups_[m].size();
    auto& bs = bucket_slots_[m];
    bs[0] = &ws_.acquire(rows, actor_in_dim);
    bs[1] = &ws_.acquire(rows, hidden);
    bs[2] = &ws_.acquire(rows, hidden);
    bs[3] = &ws_.acquire(rows, critic_in_dim);
    bs[4] = &ws_.acquire(rows, hidden);
    bs[5] = &ws_.acquire(rows, hidden);
  }
  for (std::size_t a = 0; a < num_active; ++a) {
    const std::size_t w = active[a];
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t m = config_.parameter_sharing ? 0 : i;
      const std::size_t row = a * groups_[m].size() + pos_in_bucket_[i];
      auto& bs = bucket_slots_[m];

      // Actor + critic rows in one zero-copy call: local obs into the actor
      // row; obs prefix + padded 1-hop/2-hop neighbor features (paper
      // section V-B) into the critic row.
      double* in_row = bs[0]->data() + row * actor_in_dim;
      double* v_row = bs[3]->data() + row * critic_in_dim;
      envs_[w]->obs_into_row(i, in_row, v_row, hop1_slots_, hop2_slots_);
      // Then the partner's previous regularized message (zeros when
      // communication is off).
      if (config_.comm_enabled) {
        const double* msg_src = msg_.data() + (w * n + partners_[w][i]) * msg_dim;
        std::copy(msg_src, msg_src + msg_dim, in_row + obs_dim);
      } else {
        std::fill(in_row + obs_dim, in_row + obs_dim + msg_dim, 0.0);
      }

      const std::size_t srow = (w * n + i) * hidden;
      std::copy(h_a_.data() + srow, h_a_.data() + srow + hidden,
                bs[1]->data() + row * hidden);
      std::copy(c_a_.data() + srow, c_a_.data() + srow + hidden,
                bs[2]->data() + row * hidden);
      std::copy(h_v_.data() + srow, h_v_.data() + srow + hidden,
                bs[4]->data() + row * hidden);
      std::copy(c_v_.data() + srow, c_v_.data() + srow + hidden,
                bs[5]->data() + row * hidden);
    }
  }

  // Phase 3 — per bucket (model order): one batched forward over every
  // active slot's rows, then the scatter, slot-major with members
  // ascending inside a slot.
  for (std::size_t m = 0; m < groups_.size(); ++m) {
    const auto& members = groups_[m];
    if (members.empty()) continue;
    const std::size_t bucket = members.size();
    const std::size_t rows = num_active * bucket;
    const CoordinatedActor& actor = *actors_[m];
    const CentralizedCritic& critic = *critics_[m];
    auto& bs = bucket_slots_[m];

    phase_counts_.resize(rows);
    for (std::size_t a = 0; a < num_active; ++a)
      for (std::size_t b = 0; b < bucket; ++b)
        phase_counts_[a * bucket + b] = env0.agent(members[b]).num_phases;

    auto actor_out =
        actor.forward_inference(ws_, *bs[0], *bs[1], *bs[2], phase_counts_);
    Tensor& probs = ws_.acquire(rows, actor.max_phases());
    nn::softmax_rows_into(probs, *actor_out.logits, ws_.kernel_tier());
    Tensor& logp = ws_.acquire(rows, actor.max_phases());
    nn::log_softmax_rows_into(logp, *actor_out.logits, ws_.kernel_tier());
    auto critic_out = critic.forward_inference(ws_, *bs[3], *bs[4], *bs[5]);

    const Tensor& msg_t = *actor_out.message;
    const Tensor& ha_t = *actor_out.h;
    const Tensor& ca_t = *actor_out.c;
    const Tensor& hv_t = *critic_out.h;
    const Tensor& cv_t = *critic_out.c;
    const Tensor& val_t = *critic_out.value;

    auto argmax = [&](std::size_t row, std::size_t num_phases) {
      std::size_t best = 0;
      for (std::size_t p = 1; p < num_phases; ++p)
        if (probs.at(row, p) > probs.at(row, best)) best = p;
      return best;
    };
    auto sample = [&](Rng& rng, std::size_t row, std::size_t num_phases) {
      cat_weights_.resize(num_phases);
      for (std::size_t p = 0; p < num_phases; ++p)
        cat_weights_[p] = probs.at(row, p);
      return rng.categorical(cat_weights_);
    };

    for (std::size_t a = 0; a < num_active; ++a) {
      const std::size_t w = active[a];
      Rng* rng = rngs_[w];
      for (std::size_t b = 0; b < bucket; ++b) {
        const std::size_t i = members[b];
        const std::size_t row = a * bucket + b;
        const std::size_t num_phases = phase_counts_[row];

        std::size_t action;
        if (!explore) {
          action = sample_rngs_[w] != nullptr
                       ? sample(*sample_rngs_[w], row, num_phases)
                       : argmax(row, num_phases);
        } else if (config_.ppo.sample_actions) {
          action = sample(*rng, row, num_phases);
        } else if (rng->bernoulli(epsilon_)) {
          // Paper Algorithm 1: epsilon-greedy over the policy's argmax.
          action = rng->uniform_int(num_phases);
        } else {
          action = argmax(row, num_phases);
        }
        actions_[w][i] = action;
        values_[w][i] = val_t.at(row, 0);

        const std::size_t srow = (w * n + i) * hidden;
        if (record) {
          rl::Sample sample;
          const double* in_row = bs[0]->data() + row * actor_in_dim;
          const double* v_row = bs[3]->data() + row * critic_in_dim;
          sample.obs.assign(in_row, in_row + actor_in_dim);
          sample.critic_obs.assign(v_row, v_row + critic_in_dim);
          sample.h_actor.assign(h_a_.data() + srow, h_a_.data() + srow + hidden);
          sample.c_actor.assign(c_a_.data() + srow, c_a_.data() + srow + hidden);
          sample.h_critic.assign(h_v_.data() + srow, h_v_.data() + srow + hidden);
          sample.c_critic.assign(c_v_.data() + srow, c_v_.data() + srow + hidden);
          sample.action = action;
          sample.phase_count = num_phases;
          sample.log_prob = logp.at(row, action);
          sample.value = values_[w][i];
          buffers_[w]->add(i, std::move(sample));
        }

        // Advance the recurrent state (samples above hold the pre-step
        // state) and regularize the outgoing message: m_hat =
        // Logistic(N(m, sigma)), noiseless when not exploring.
        std::copy(ha_t.data() + row * hidden, ha_t.data() + (row + 1) * hidden,
                  h_a_.data() + srow);
        std::copy(ca_t.data() + row * hidden, ca_t.data() + (row + 1) * hidden,
                  c_a_.data() + srow);
        std::copy(hv_t.data() + row * hidden, hv_t.data() + (row + 1) * hidden,
                  h_v_.data() + srow);
        std::copy(cv_t.data() + row * hidden, cv_t.data() + (row + 1) * hidden,
                  c_v_.data() + srow);
        double* msg_row = msg_.data() + (w * n + i) * msg_dim;
        for (std::size_t k = 0; k < msg_dim; ++k) {
          const double raw = msg_t.at(row, k);
          const double noisy =
              explore ? rng->normal(raw, config_.msg_sigma) : raw;
          msg_row[k] = nn::logistic(noisy, ws_.kernel_tier());
        }
      }
    }
  }
}

std::vector<env::EpisodeStats> RolloutEngine::run_episodes(
    std::span<const RolloutSlot> slots, bool train_mode, double epsilon) {
  assert(!slots.empty());
  const std::size_t k = slots.size();
  const std::size_t n = slots.front().env->num_agents();
  epsilon_ = epsilon;
  prepare(k, n);

  // Stochastic evaluation samples from a stream derived from each slot's
  // episode seed.
  const bool use_sample_rng = !train_mode && !config_.greedy_eval;
  eval_rngs_.clear();
  if (use_sample_rng)
    for (const RolloutSlot& slot : slots)
      eval_rngs_.emplace_back(slot.seed ^ env::kEvalSampleSalt);

  reward_sum_.assign(k, 0.0);
  reward_count_.assign(k, 0);
  last_messages_.resize(k);
  last_partners_.resize(k);
  for (std::size_t w = 0; w < k; ++w) {
    const RolloutSlot& slot = slots[w];
    assert(slot.env != nullptr && slot.env->num_agents() == n);
    assert(!train_mode || slot.buffer != nullptr);
    envs_[w] = slot.env;
    rngs_[w] = slot.rng;
    sample_rngs_[w] = use_sample_rng ? &eval_rngs_[w] : nullptr;
    buffers_[w] = slot.buffer;
    slot.env->reset(slot.seed);
  }

  active_.resize(k);
  for (std::size_t w = 0; w < k; ++w) active_[w] = w;

  std::vector<env::EpisodeStats> stats(k);
  while (!active_.empty()) {
    decide(active_, /*explore=*/train_mode, /*record=*/train_mode);
    newly_done_.clear();
    for (std::size_t w : active_) {
      env::TscEnv& env = *slots[w].env;
      const std::vector<double> rewards = env.step(actions_[w]);
      for (double r : rewards) {
        reward_sum_[w] += r;
        ++reward_count_[w];
      }
      if (train_mode)
        for (std::size_t i = 0; i < rewards.size(); ++i)
          buffers_[w]->last(i).reward = rewards[i];
      if (env.done()) newly_done_.push_back(w);
    }
    if (newly_done_.empty()) continue;

    if (train_mode) {
      // Bootstrap V(s_T) for the finished slots in one batched decision
      // (Algorithm 1 line 24). It still picks partners, so it consumes a
      // slot's stream exactly like any other noiseless decision.
      decide(newly_done_, /*explore=*/false, /*record=*/false);
      for (std::size_t w : newly_done_)
        for (std::size_t i = 0; i < n; ++i)
          buffers_[w]->finish_agent(i, values_[w][i], config_.ppo.gamma,
                                    config_.ppo.lambda);
    }

    for (std::size_t w : newly_done_) {
      const env::TscEnv& env = *slots[w].env;
      stats[w].avg_wait = env.episode_avg_wait();
      stats[w].travel_time = env.average_travel_time();
      stats[w].delay = env.average_delay();
      stats[w].mean_reward =
          reward_count_[w]
              ? reward_sum_[w] / static_cast<double>(reward_count_[w])
              : 0.0;
      stats[w].vehicles_finished = env.simulator().vehicles_finished();
      stats[w].vehicles_spawned = env.simulator().vehicles_spawned();

      last_partners_[w] = partners_[w];
      last_messages_[w].resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double* msg_row = msg_.data() + (w * n + i) * config_.msg_dim;
        last_messages_[w][i].assign(msg_row, msg_row + config_.msg_dim);
      }
    }
    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [&](std::size_t w) {
                                   return std::find(newly_done_.begin(),
                                                    newly_done_.end(),
                                                    w) != newly_done_.end();
                                 }),
                  active_.end());
  }
  return stats;
}

void RolloutEngine::begin_episode(std::size_t num_agents) {
  prepare(1, num_agents);
  active_.assign(1, 0);
}

const std::vector<std::size_t>& RolloutEngine::act(const env::TscEnv& env,
                                                   Rng* partner_rng,
                                                   Rng* sample_rng) {
  assert(active_.size() == 1 && partners_.size() == 1 &&
         partners_[0].size() == env.num_agents() &&
         "begin_episode() must precede act()");
  envs_[0] = &env;
  rngs_[0] = partner_rng;
  sample_rngs_[0] = sample_rng;
  buffers_[0] = nullptr;
  decide(active_, /*explore=*/false, /*record=*/false);
  return actions_[0];
}

}  // namespace tsc::core
