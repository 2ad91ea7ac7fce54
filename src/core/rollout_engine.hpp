// The rollout engine: the one code path that turns PairUpLight
// observations into actions, for training collection, evaluation and the
// deployed Controller alike.
//
// An engine steps a set of environment replicas ("slots") in lockstep on
// the calling thread. Each decision packs every slot's agent rows into
// shared batch matrices (reused InferenceWorkspace slots), runs the actor
// and critic forwards once per model bucket through the tiled GEMM, and
// keeps the LSTM h/c and outgoing messages resident in slot-ordered slab
// tensors (row = slot * num_agents + agent). Under parameter sharing one
// bucket holds every agent; without it (the heterogeneous Monaco network)
// each agent's model is its own bucket and batches that agent's rows
// across slots. Per-agent phase masks apply at the logits inside a bucket,
// so phase-count heterogeneity never splits one.
//
// DETERMINISM. Three properties make a slot's trajectory a function of its
// own seeds, streams and the weights alone — never of which other slots
// share its engine, or how many engines a collection round is cut into:
//  1. Every kernel is row-independent and the tiled GEMM is bit-identical
//     to the reference kernel for finite weights (nn/tensor.hpp), so
//     packing more rows into a batch never changes any row's result.
//  2. Gather order: all buckets' input rows are packed (partners picked
//     slot-ascending, then agent-ascending) before any bucket's forward or
//     scatter runs, so every agent reads the PREVIOUS step's messages —
//     Algorithm 1's synchronous sweep.
//  3. Scatter order: buckets run in model order and each bucket's rows
//     slot-major (members ascending within a slot), so each slot's streams
//     are consumed in agent order. Streams are per slot, so interleaving
//     across slots is unobservable.
// tests/test_rollout_engine.cpp pins the slicing invariance (one engine
// over four slots == four one-slot engines, byte for byte);
// tests/test_rollout_goldens.cpp pins the trajectories of every caller.
//
// Threading: an engine is single-threaded mutable scratch. It reads the
// live models and never writes them, so several engines may run
// concurrently over the same weights as long as nothing updates them
// meanwhile (the trainer collects, then updates).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/actor.hpp"
#include "src/core/critic.hpp"
#include "src/env/controller.hpp"
#include "src/env/env.hpp"
#include "src/nn/inference.hpp"
#include "src/rl/ppo.hpp"
#include "src/rl/rollout.hpp"
#include "src/util/rng.hpp"

namespace tsc::core {

/// Who an agent listens to (ablation of the paper's section V-B design;
/// the paper's choice is kMostCongestedUpstream).
enum class PairingStrategy {
  kMostCongestedUpstream,  ///< paper: congestion-first upstream neighbor
  kSelf,                   ///< listen to own previous message only
  kRandomNeighbor,         ///< uniformly random upstream neighbor per step
  kFixedUpstream,          ///< first upstream neighbor, never re-paired
};

/// How each PPO minibatch's forward/backward work is laid out across the
/// update shards (core/update_engine.hpp has the full determinism argument).
enum class UpdateMode {
  /// Single batched pass on the calling thread, regardless of
  /// num_update_shards: the historical golden-tested update.
  kSerial,
  /// One single-row tape per sample, sharded across workers; per-sample
  /// gradient slots are folded in global sample order, so weights are
  /// BIT-IDENTICAL to kSerial for every shard count.
  kPerSampleShards,
  /// One batched forward/backward per worker over its contiguous minibatch
  /// slice; per-shard gradient slots are folded in shard order. Each weight
  /// gradient's row fold is re-associated at shard boundaries, so weights
  /// are tolerance-bounded against kSerial, not bit-identical — but every
  /// Linear/LSTM op runs at rows = shard size instead of rows = 1.
  kBatchedShards,
};

/// Which backward implementation the PPO update runs. Orthogonal to
/// UpdateMode: every shard layout supports both paths, and the two produce
/// BIT-IDENTICAL losses, gradients, and weight trajectories (the fused
/// kernels replay the tape's FP accumulation orders — nn/backward.hpp has
/// the contract, tests/test_backward_path.cpp the pins).
enum class UpdatePath {
  /// Autodiff tape (nn/tape.hpp): per-minibatch graph construction, node
  /// allocation, and closure dispatch. The oracle the fused path is pinned
  /// against.
  kTape,
  /// Tape-free fused forward/backward (nn/backward.hpp): preallocated
  /// workspace slots, hand-written analytic kernels, gradients accumulated
  /// straight into the per-slot sinks. Same numbers, ~2x+ update
  /// throughput.
  kFused,
};

struct PairUpConfig {
  rl::PpoConfig ppo;
  std::size_t hidden = 64;
  std::size_t msg_dim = 1;      ///< communication bandwidth (Fig. 11: 1 vs 2)
  double msg_sigma = 0.1;       ///< regularizer noise std during training
  bool comm_enabled = true;     ///< false = no-communication ablation (Fig. 8)
  PairingStrategy pairing = PairingStrategy::kMostCongestedUpstream;
  /// Evaluation action rule. PPO learns a stochastic policy, so by default
  /// evaluation SAMPLES from it (with a deterministic per-episode stream);
  /// a barely-trained policy's argmax can freeze a phase and gridlock.
  /// Set true to evaluate the argmax policy instead.
  bool greedy_eval = false;
  /// Neighbor rings fed to the centralized critic: 0 = local only,
  /// 1 = +one-hop, 2 = +two-hop (the paper's design).
  std::size_t critic_hops = 2;
  /// One shared actor/critic for all agents (homogeneous grids) or one per
  /// agent (heterogeneous networks, paper section VI-D).
  bool parameter_sharing = true;
  /// Environment replicas collecting episodes per training step. 1 = the
  /// trainer's own environment and exploration stream (no threads); K > 1
  /// collects K full episodes per PPO update on K replicas, cut into
  /// min(K, hardware threads) contiguous slices that run concurrently, one
  /// rollout engine each. Results are deterministic for a fixed K — the
  /// slice count never changes them — but differ across K (different
  /// episode seeds and batch composition).
  std::size_t num_envs = 1;
  /// Worker-count-invariant seeding: derive each collected episode's env
  /// seed from the GLOBAL episode index (seed + round * num_envs + slot)
  /// instead of the round's seeder stream, so the sequence of env seeds —
  /// and hence the traffic each policy update sees — is identical for every
  /// num_envs (training curves stay comparable when scaling workers).
  /// Exploration streams for parallel workers derive from the env seed.
  /// false = the historical slot-dependent seeder (bit-identical legacy).
  /// With num_envs = 1 both modes use seed + round, so the serial golden
  /// path is unchanged either way.
  bool invariant_seeding = false;
  /// Parallel PPO update: number of shards each minibatch's
  /// forward/backward is split across. 1 = the exact historical serial
  /// update (single batched pass, no threads); K > 1 splits the work over K
  /// worker threads on the frozen weights and reduces the gradient slots in
  /// a fixed order before the single clip + Adam step. Under
  /// kPerSampleShards gradients are bit-identical for every value,
  /// including 1, so — unlike num_envs — training curves can be compared
  /// across shard counts (see core/update_engine.hpp for the argument and
  /// its golden tests).
  std::size_t num_update_shards = 1;
  /// Work layout of the sharded update (only consulted when
  /// num_update_shards > 1; a single shard always runs kSerial).
  /// kPerSampleShards keeps the bit-identical guarantee above;
  /// kBatchedShards (the default) runs one batched matmul per worker —
  /// weights then track the serial run within a pinned tolerance instead of
  /// exactly (tests/test_update_modes.cpp); select kPerSampleShards to keep
  /// the bit-identical guarantee at the cost of rows = 1 matmuls.
  UpdateMode update_mode = UpdateMode::kBatchedShards;
  /// Backward implementation of the PPO update (env: PAIRUP_UPDATE_PATH =
  /// tape|fused). kFused (default) runs the tape-free analytic backward —
  /// bit-identical to the tape for every update_mode and shard count, so
  /// all goldens exercise it; kTape keeps the autodiff tape (the oracle,
  /// for A-B comparison and the bitwise pins).
  UpdatePath update_path = UpdatePath::kFused;
  /// Math-kernel tier of the rollout engine's forwards (nn/kernels.hpp).
  /// kReference (default) keeps the bit-exact legacy kernels everywhere.
  /// kFast runs rollout collection and evaluation forwards through the
  /// SIMD/FMA kernels — tolerance-bounded against reference (documented
  /// error budgets in nn/kernels.hpp; divergence contract in the README
  /// determinism matrix), NOT bit-identical, so training trajectories
  /// diverge the way the `batched` update mode does. The PPO update itself
  /// always runs reference-tier kernels regardless of this knob.
  nn::KernelTier kernel_tier = nn::KernelTier::kReference;
  std::uint64_t seed = 1;
};

/// Communication partner of `agent` under the configured strategy. Draws
/// one uniform_int from `rng` exactly when the strategy is kRandomNeighbor
/// and the agent has upstream neighbors.
std::size_t pick_partner(const env::TscEnv& env, const PairUpConfig& config,
                         Rng* rng, std::size_t agent);

/// One replica's bindings for a lockstep run. All pointers are non-owning
/// and must outlive the run. `rng` is the slot's exploration stream
/// (required in train mode, and whenever the pairing strategy draws);
/// `buffer` is required in train mode.
struct RolloutSlot {
  env::TscEnv* env = nullptr;
  std::uint64_t seed = 0;
  Rng* rng = nullptr;
  rl::RolloutBuffer* buffer = nullptr;
};

class RolloutEngine {
 public:
  /// Reads the given models (one, or one per agent) for every decision;
  /// `config` and the models must outlive the engine.
  RolloutEngine(const PairUpConfig& config,
                std::vector<const CoordinatedActor*> actors,
                std::vector<const CentralizedCritic*> critics,
                std::size_t hop1_slots, std::size_t hop2_slots);

  /// Runs one full episode on every slot in lockstep, each env reset with
  /// its slot seed. Train mode explores (config.ppo.sample_actions, else
  /// epsilon-greedy with `epsilon`), adds regularizer noise to messages,
  /// records into each slot's buffer, bootstraps V(s_T) and runs GAE per
  /// agent. Otherwise actions follow config.greedy_eval: argmax, or samples
  /// from Rng(seed ^ kEvalSampleSalt) per slot. Returns per-slot stats in
  /// slot order. The slot count may differ between calls; buffers that
  /// have reached their peak shape stop allocating (alloc_events()).
  std::vector<env::EpisodeStats> run_episodes(std::span<const RolloutSlot> slots,
                                              bool train_mode, double epsilon);

  /// One-decision-per-call seam of the Controller: begin_episode() zeroes
  /// the recurrent and message state of one slot of `num_agents` agents;
  /// act() takes the noiseless decision for env's current state. Partners
  /// draw from `partner_rng`; actions sample from `sample_rng` when it is
  /// non-null and take the argmax otherwise.
  void begin_episode(std::size_t num_agents);
  const std::vector<std::size_t>& act(const env::TscEnv& env, Rng* partner_rng,
                                      Rng* sample_rng);

  /// Workspace + state-slab allocation events: the first episodes at a new
  /// peak slot count allocate, steady state adds exactly zero.
  std::size_t alloc_events() const { return ws_.alloc_events() + slab_events_; }

  /// Partners and regularized messages of a slot at its final decision of
  /// the last run_episodes() call (protocol inspection).
  const std::vector<std::vector<double>>& last_messages(std::size_t slot) const {
    return last_messages_.at(slot);
  }
  const std::vector<std::size_t>& last_partners(std::size_t slot) const {
    return last_partners_.at(slot);
  }

 private:
  /// Sizes the per-slot scratch for `slots` slots of `num_agents` agents
  /// and zeroes the state slabs (the start of an episode).
  void prepare(std::size_t slots, std::size_t num_agents);

  /// One lockstep decision for the slots listed in `active`. Fills
  /// actions_/values_ for them; `record` adds buffer samples.
  void decide(const std::vector<std::size_t>& active, bool explore, bool record);

  /// Slab reshape that counts backing-storage growth like
  /// InferenceWorkspace::acquire (slabs never shrink capacity).
  void reshape_slab(nn::Tensor& slab, std::size_t rows, std::size_t cols);

  const PairUpConfig& config_;
  std::vector<const CoordinatedActor*> actors_;
  std::vector<const CentralizedCritic*> critics_;
  std::size_t hop1_slots_ = 0, hop2_slots_ = 0;

  nn::InferenceWorkspace ws_;
  std::size_t slab_events_ = 0;
  /// Slot-ordered recurrent/message state; row = slot * num_agents + agent.
  nn::Tensor h_a_, c_a_, h_v_, c_v_, msg_;
  double epsilon_ = 0.0;  ///< exploration epsilon of the current run

  // Per-slot bindings of the current episode.
  std::vector<const env::TscEnv*> envs_;
  std::vector<Rng*> rngs_;                 ///< exploration / partner streams
  std::vector<Rng*> sample_rngs_;          ///< null = argmax when not exploring
  std::vector<rl::RolloutBuffer*> buffers_;
  std::vector<Rng> eval_rngs_;             ///< run_episodes' sample streams

  // Per-episode scratch (capacities persist across episodes).
  std::vector<std::vector<std::size_t>> groups_;   ///< model -> member agents
  std::vector<std::size_t> pos_in_bucket_;         ///< agent -> index in its bucket
  /// Per-bucket batch tensors of the current decision, in acquisition
  /// order: actor input, h_a, c_a, critic input, h_v, c_v.
  std::vector<std::array<nn::Tensor*, 6>> bucket_slots_;
  std::vector<std::size_t> active_;                ///< live slot indices
  std::vector<std::size_t> newly_done_;
  std::vector<double> reward_sum_;                 ///< [slot]
  std::vector<std::size_t> reward_count_;          ///< [slot]
  std::vector<std::vector<std::size_t>> actions_;  ///< [slot][agent]
  std::vector<std::vector<double>> values_;        ///< [slot][agent]
  std::vector<std::vector<std::size_t>> partners_; ///< [slot][agent]
  std::vector<std::size_t> phase_counts_;          ///< per-bucket batch scratch
  std::vector<double> cat_weights_;                ///< categorical scratch
  std::vector<std::vector<std::vector<double>>> last_messages_;
  std::vector<std::vector<std::size_t>> last_partners_;
};
}  // namespace tsc::core
