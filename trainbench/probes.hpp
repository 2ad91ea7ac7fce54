// Per-layer probes of the training benchmark. Each one times calls into a
// library layer's public functions from outside the library:
//   * UpdateReplay replays a PPO update's minibatch loop through the actor
//     and critic forward_train/backward_train, rl::fused_ppo_loss_grad,
//     nn::clip_grad_norm and nn::Adam::step on shadow copies of the
//     trainer's networks, fed with the rows of a real rollout;
//   * probe_layers times standalone nn::LstmCell / nn::Linear calls at the
//     networks' shapes;
//   * InferenceProbe times the decision-time forward_inference calls.
// All of them read real rows (recorded observations, hidden states and
// samples): the GEMM kernels skip zeros, so their timing depends on data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/trainer.hpp"
#include "src/nn/backward.hpp"
#include "src/nn/optim.hpp"
#include "src/rl/rollout.hpp"

namespace trainbench {

/// Every trainable model of a trainer, actor then critic, model by model.
std::vector<tsc::nn::Parameter*> trainer_parameters(
    tsc::core::PairUpLightTrainer& trainer);

/// True when every parameter value is finite.
bool parameters_finite(tsc::core::PairUpLightTrainer& trainer);

/// FNV-1a over the bytes of every parameter value, in trainer_parameters()
/// order: equal fingerprints mean bit-identical weights.
std::uint64_t parameter_fingerprint(tsc::core::PairUpLightTrainer& trainer);

/// Number of parameter values that differ bitwise between two trainers of
/// the same configuration (a count, so 0 means a bit-for-bit match).
std::size_t parameters_differing(tsc::core::PairUpLightTrainer& a,
                                 tsc::core::PairUpLightTrainer& b);

/// Shapes of one model pair, as the update's GEMMs see them.
struct NetShape {
  std::size_t actor_in = 0;   ///< observation + message width
  std::size_t critic_in = 0;  ///< local observation + neighbor rings
  std::size_t hidden = 0;
  std::size_t phases = 0;     ///< policy-head width (max phases)
};

NetShape net_shape(tsc::core::PairUpLightTrainer& trainer);

/// Sum of m*n*k over every GEMM the fused update runs for ONE minibatch row
/// (forward and backward, actor and critic), computed from the shapes. The
/// forward skips the message head and the embeddings' input gradient, as
/// forward_train/backward_train do. Multiply by the rows an update
/// processes (epochs x samples) for the update's total; each m*n*k is one
/// multiply and one add.
double update_gemm_mnk_per_row(const NetShape& shape);

/// Times of one replayed update, in seconds, plus its counts.
struct ReplayResult {
  double total = 0.0;       ///< wall time of the whole replay
  double pack = 0.0;        ///< flatten, row packing, shuffles, zero_grad
  double actor_fwd = 0.0;
  double critic_fwd = 0.0;
  double ppo_loss = 0.0;
  double actor_bwd = 0.0;
  double critic_bwd = 0.0;
  double clip = 0.0;
  double adam = 0.0;
  std::size_t minibatches = 0;
  std::size_t rows = 0;     ///< minibatch rows summed over the update
};

/// Replays trainer.update()'s minibatch loop on shadow networks. The shadow
/// models and optimizers are built once; every run() first copies the live
/// weights in, so activations match the production update's.
class UpdateReplay {
 public:
  explicit UpdateReplay(tsc::core::PairUpLightTrainer& trainer);

  /// Replays one update over `buffer` (GAE-finished; advantages are
  /// normalized in place, as update() does). `scale` stretches every
  /// measured phase; 1 except in the benchmark's self-tests.
  ReplayResult run(tsc::rl::RolloutBuffer& buffer, double scale = 1.0);

 private:
  struct Model {
    std::unique_ptr<tsc::core::CoordinatedActor> actor;
    std::unique_ptr<tsc::core::CentralizedCritic> critic;
    std::unique_ptr<tsc::nn::Adam> optim;
    std::vector<tsc::nn::Parameter*> params;
    std::size_t actor_count = 0;
  };
  void replay_model(Model& model, const std::vector<const tsc::rl::Sample*>& samples,
                    ReplayResult& out);

  tsc::core::PairUpLightTrainer& trainer_;
  std::vector<Model> models_;
  tsc::nn::BackwardWorkspace ws_;
  tsc::Rng shuffle_rng_{0x7e51ULL};
};

/// PPO loss of the trainer's model 0 on the first minibatch of `samples` at
/// the current weights (forward + fused loss only; no parameter changes).
double minibatch_loss(tsc::core::PairUpLightTrainer& trainer,
                      const std::vector<const tsc::rl::Sample*>& samples,
                      tsc::nn::BackwardWorkspace& ws);

/// Standalone layer times per update, in seconds.
struct LayerResult {
  double lstm_fwd = 0.0, lstm_bwd = 0.0;
  double linear_fwd = 0.0, linear_bwd = 0.0;
};

/// Times nn::LstmCell / nn::Linear forward_train / backward_train at the
/// update's minibatch rows, with model 0's weights and rows, and scales each
/// call by the number of such calls an update makes (`update_rows` rows in
/// total, per network).
LayerResult probe_layers(tsc::core::PairUpLightTrainer& trainer,
                         const std::vector<const tsc::rl::Sample*>& samples,
                         std::size_t update_rows);

/// Decision-time inference of one decision step, in seconds.
struct InferenceResult {
  double actor = 0.0;
  double critic = 0.0;
};

/// Times the actor and critic forward_inference calls of one decision step
/// (one batched call per shared model, one single-row call per agent
/// otherwise) on the rows the agents recorded at a step of `buffer`. Called
/// once per step of a controller-driven episode, right after its decision,
/// so that both are measured in the same moment of the machine.
class InferenceProbe {
 public:
  /// `trainer` and `buffer` must outlive the probe.
  InferenceProbe(tsc::core::PairUpLightTrainer& trainer,
                 const tsc::rl::RolloutBuffer& buffer)
      : trainer_(trainer), buffer_(buffer) {}

  /// The forwards on the rows recorded at `step` (the agents' last recorded
  /// step when `step` is past it).
  InferenceResult time_step(std::size_t step);

 private:
  struct Batch {
    tsc::nn::Tensor input, h_a, c_a, v_input, h_v, c_v;
    std::vector<std::size_t> phase_counts;
  };
  Batch make_batch(std::size_t step, std::size_t first_agent, std::size_t agents) const;

  tsc::core::PairUpLightTrainer& trainer_;
  const tsc::rl::RolloutBuffer& buffer_;
  tsc::nn::InferenceWorkspace ws_;
  bool warm_ = false;
};

}  // namespace trainbench
