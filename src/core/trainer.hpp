// PairUpLight training loop (paper Algorithm 1).
//
// Centralized Training, Decentralized Execution: a (by default shared)
// coordinated actor and centralized critic are trained with PPO + GAE over
// multi-agent rollouts. At every step each agent pairs up with its most
// congested upstream neighbor (falling back to itself) and receives that
// partner's previous outgoing message, regularized as
//     m_hat = Logistic(N(m, sigma))        (Algorithm 1 line 16)
// During evaluation the noise is dropped (m_hat = logistic(m)) and actions
// are greedy.
//
// Recurrent PPO uses stored hidden states: the h/c recorded during the
// rollout are replayed as fixed inputs in the update, so minibatch samples
// stay independent (see rl/rollout.hpp).
//
// Every decision — rollout collection, evaluation and the Controller —
// runs through core/rollout_engine.hpp over the live networks. With
// config.num_envs == 1 collection and evaluation run one engine on the
// trainer's own environment and exploration stream; with num_envs = K > 1
// the trainer owns K environment replicas, cut into min(K, hardware
// threads) contiguous slices that collect concurrently on a thread pool,
// one engine per slice, before every PPO update. The slice count never
// changes a result (the engine's determinism properties).
//
// The PPO update is delegated to core/update_engine.hpp the same way:
// num_update_shards == 1 (or update_mode == kSerial) runs the historical
// batched minibatch update on the scratch tape; K > 1 shards each minibatch
// across K worker threads. The layout is config.update_mode:
// kPerSampleShards reduces per-sample gradients in sample order and keeps
// weights bit-identical to the serial update at every step;
// kBatchedShards runs one batched pass per shard and tracks the serial
// weights within a pinned tolerance instead (tests/test_update_modes.cpp).
#pragma once

#include <memory>
#include <vector>

#include "src/core/actor.hpp"
#include "src/core/critic.hpp"
#include "src/core/rollout_engine.hpp"
#include "src/core/update_engine.hpp"
#include "src/env/controller.hpp"
#include "src/env/env.hpp"
#include "src/nn/optim.hpp"
#include "src/nn/tape.hpp"
#include "src/rl/parallel_rollout.hpp"
#include "src/rl/ppo.hpp"
#include "src/rl/rollout.hpp"
#include "src/util/thread_pool.hpp"

namespace tsc::core {

class PairUpLightTrainer {
 public:
  /// `env` must outlive the trainer.
  PairUpLightTrainer(env::TscEnv* env, PairUpConfig config);

  /// The rollout phase of one training step: config.num_envs full episodes
  /// (on the trainer's own environment when 1, on replicas otherwise)
  /// collected with the CURRENT
  /// policy weights and this step's exploration epsilon, merged into one
  /// PPO batch. `stats` averages the per-episode quality metrics and sums
  /// the vehicle counts; `env_steps` is the total environment steps taken
  /// (throughput accounting for the benchmarks). Does NOT update weights
  /// or advance the episode counter.
  struct CollectResult {
    rl::RolloutBuffer buffer{0};
    env::EpisodeStats stats;
    std::size_t env_steps = 0;
  };
  CollectResult collect_rollouts(std::uint64_t base_seed);

  /// The update phase of one training step: PPO epochs/minibatches over a
  /// collected (GAE-finished) buffer. Exposed separately so benchmarks and
  /// tests can time or drive it without re-collecting rollouts; normalizes
  /// advantages in place when configured. Does not advance the episode
  /// counter.
  void update(rl::RolloutBuffer& buffer);

  /// One training episode: rollout (with exploration + message noise),
  /// then a PPO update. Episode seeds advance deterministically. With
  /// num_envs = K this consumes K episodes' worth of experience per call.
  env::EpisodeStats train_episode();

  /// One episode without learning or exploration noise (always on the
  /// trainer's own environment, regardless of num_envs). Actions follow
  /// config.greedy_eval; partners draw from the trainer's stream.
  env::EpisodeStats eval_episode(std::uint64_t seed);

  /// Stateful controller over the trained policy (for the shared evaluation
  /// harness): eval_episode's decisions, one per act(), on its own rollout
  /// engine. It reads this trainer's networks and draws partners from its
  /// stream; the trainer must outlive it.
  std::unique_ptr<env::Controller> make_controller();

  std::size_t episodes_trained() const { return episode_; }
  const PairUpConfig& config() const { return config_; }
  std::size_t critic_input_dim() const { return critic_input_dim_; }
  std::size_t num_models() const { return actors_.size(); }
  CoordinatedActor& actor(std::size_t model = 0) { return *actors_.at(model); }
  CentralizedCritic& critic(std::size_t model = 0) { return *critics_.at(model); }
  /// Environment replicas collecting per training step (config.num_envs).
  std::size_t num_envs() const { return config_.num_envs; }
  /// Concurrent collection slices: min(num_envs, hardware threads), one
  /// rollout engine each (1 = everything on the calling thread).
  std::size_t rollout_slices() const { return engines_.size(); }
  /// Env seeds of the most recent collect_rollouts round, in slot order
  /// (one entry per environment replica; one when num_envs = 1). Under
  /// config.invariant_seeding these depend only on the global episode
  /// index, never on num_envs.
  const std::vector<std::uint64_t>& last_episode_seeds() const {
    return last_episode_seeds_;
  }

  /// Bits each agent receives from other intersections per decision step
  /// (Table IV): msg_dim 32-bit values from exactly one neighbor.
  std::size_t comm_bits_per_step() const { return config_.msg_dim * 32; }

  /// Allocation events across the collection/evaluation engines: flat once
  /// every decision shape has been seen (the zero steady-state-allocation
  /// contract of nn/inference.hpp).
  std::size_t rollout_alloc_events() const;

  /// Allocation events across every backward workspace of the fused update
  /// path (the serial workspace plus all shard workspaces). Like
  /// rollout_alloc_events(), flat once minibatch shapes
  /// stabilize; exactly 0 grows when update_path == kTape.
  std::size_t update_alloc_events() const {
    return update_workspace_.alloc_events() +
           (updater_ ? updater_->backward_alloc_events() : 0);
  }

  /// Effective shard count of the PPO update: the constructor clamps
  /// kPerSampleShards requests beyond the hardware thread count (the
  /// per-sample layout is bit-identical across shard counts, so clamping
  /// only removes oversubscription). 1 on the serial path.
  std::size_t update_shards() const {
    return updater_ ? updater_->num_shards() : 1;
  }

  /// Critic neighbor-ring padding widths (the layout parameters the trainer
  /// derived from the env graph; a RolloutEngine over its models needs them).
  std::size_t hop1_slots() const { return hop1_slots_; }
  std::size_t hop2_slots() const { return hop2_slots_; }

  /// Regularized outgoing messages (one per agent) recorded at the last
  /// decision of train_episode()/eval_episode() - for protocol inspection.
  /// With num_envs > 1 these come from slot 0's episode.
  const std::vector<std::vector<double>>& last_messages() const {
    return last_messages_;
  }
  /// Pairing partner chosen for each agent at the last decision.
  const std::vector<std::size_t>& last_partners() const { return last_partners_; }

  /// Checkpoints the full training state: every model's weights
  /// (`<prefix>_actor<k>.bin` / `<prefix>_critic<k>.bin`), every
  /// optimizer's Adam moments and step count (`<prefix>_optim<k>.bin`),
  /// and the trainer's episode counter + RNG stream (`<prefix>_trainer.bin`).
  /// load_checkpoint restores all of it (the trainer must have been
  /// constructed with an identical config/environment), so a resumed run
  /// continues the uninterrupted run step-for-step — weights alone are not
  /// enough, since Adam's moments/bias correction, the epsilon schedule,
  /// and the shuffle stream all carry state.
  void save_checkpoint(const std::string& prefix);
  void load_checkpoint(const std::string& prefix);

 private:
  friend class PairUpController;

  /// A rollout engine over the live models.
  std::unique_ptr<RolloutEngine> make_engine() const;

  /// Runs one episode per slot: on engines_[0] when there is one slice,
  /// otherwise slice s (a contiguous run of slots) on engines_[s], all
  /// slices concurrently on pool_. Stats come back in slot order.
  std::vector<env::EpisodeStats> run_slots(const std::vector<RolloutSlot>& slots,
                                           double epsilon);

  void update_model(std::size_t model, const std::vector<const rl::Sample*>& samples);
  double current_epsilon() const;

  env::TscEnv* env_;
  PairUpConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<CoordinatedActor>> actors_;
  std::vector<std::unique_ptr<CentralizedCritic>> critics_;
  std::vector<std::unique_ptr<nn::Adam>> optims_;
  std::size_t hop1_slots_ = 0, hop2_slots_ = 0;
  std::size_t critic_input_dim_ = 0;
  std::size_t episode_ = 0;
  std::uint64_t episode_seed_ = 0;
  std::vector<std::vector<double>> last_messages_;
  std::vector<std::size_t> last_partners_;
  std::vector<std::uint64_t> last_episode_seeds_;
  /// Reusable autodiff tape for the tape update path (reset before every
  /// minibatch; reuse keeps node storage warm, see nn/tape.hpp).
  nn::Tape scratch_tape_;
  /// Per-update packed sample rows (built once per update_model call and
  /// shared by every epoch's minibatches; capacity pinned across updates).
  PackedSampleBlock sample_block_;
  /// Activation/gradient buffers for the serial fused update path
  /// (update_path == kFused, num_update_shards == 1). Shard workspaces live
  /// inside updater_.
  nn::BackwardWorkspace update_workspace_;
  /// One rollout engine per collection slice; engines_[0] also runs
  /// evaluation and the num_envs = 1 collection.
  std::vector<std::unique_ptr<RolloutEngine>> engines_;
  /// Environment replicas collecting when config.num_envs > 1.
  std::vector<std::unique_ptr<env::TscEnv>> replicas_;
  /// One thread per slice; built only when there is more than one slice.
  std::unique_ptr<util::ThreadPool> pool_;
  /// Built only when config.num_update_shards > 1 and update_mode is not
  /// kSerial.
  std::unique_ptr<ParallelUpdateEngine> updater_;
};

}  // namespace tsc::core
