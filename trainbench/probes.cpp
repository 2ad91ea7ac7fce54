#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "knobs.hpp"
#include "ledger.hpp"
#include "src/core/update_engine.hpp"
#include "src/nn/layers.hpp"
#include "src/rl/ppo.hpp"

namespace trainbench {

using tsc::core::CentralizedCritic;
using tsc::core::CoordinatedActor;
using tsc::core::PairUpLightTrainer;
using tsc::nn::Parameter;
using tsc::nn::Tensor;

std::vector<Parameter*> trainer_parameters(PairUpLightTrainer& trainer) {
  std::vector<Parameter*> out;
  for (std::size_t m = 0; m < trainer.num_models(); ++m) {
    for (Parameter* p : trainer.actor(m).parameters()) out.push_back(p);
    for (Parameter* p : trainer.critic(m).parameters()) out.push_back(p);
  }
  return out;
}

bool parameters_finite(PairUpLightTrainer& trainer) {
  for (const Parameter* p : trainer_parameters(trainer))
    for (std::size_t i = 0; i < p->value.size(); ++i)
      if (!std::isfinite(p->value[i])) return false;
  return true;
}

std::uint64_t parameter_fingerprint(PairUpLightTrainer& trainer) {
  std::uint64_t hash = fnv1a(nullptr, 0);
  for (const Parameter* p : trainer_parameters(trainer))
    hash = fnv1a(p->value.data(), p->value.size() * sizeof(double), hash);
  return hash;
}

std::size_t parameters_differing(PairUpLightTrainer& a, PairUpLightTrainer& b) {
  const auto pa = trainer_parameters(a);
  const auto pb = trainer_parameters(b);
  if (pa.size() != pb.size())
    throw std::invalid_argument("parameters_differing: different models");
  std::size_t differing = 0;
  for (std::size_t k = 0; k < pa.size(); ++k) {
    const Tensor& x = pa[k]->value;
    const Tensor& y = pb[k]->value;
    if (x.size() != y.size())
      throw std::invalid_argument("parameters_differing: different shapes");
    for (std::size_t i = 0; i < x.size(); ++i)
      if (std::memcmp(&x.data()[i], &y.data()[i], sizeof(double)) != 0) ++differing;
  }
  return differing;
}

NetShape net_shape(PairUpLightTrainer& trainer) {
  NetShape s;
  s.actor_in = trainer.actor(0).input_dim();
  s.critic_in = trainer.critic(0).input_dim();
  s.hidden = trainer.actor(0).hidden_size();
  s.phases = trainer.actor(0).max_phases();
  return s;
}

double update_gemm_mnk_per_row(const NetShape& s) {
  const double h = static_cast<double>(s.hidden);
  const double gates = 4.0 * h;
  const double a = static_cast<double>(s.actor_in);
  const double c = static_cast<double>(s.critic_in);
  const double p = static_cast<double>(s.phases);
  // LSTM: x@w_x and h@w_h forward; dw_h, dx and dw_x backward.
  const double lstm = 2.0 * h * gates + 3.0 * h * gates;
  // Embedding: forward plus its weight gradient (no input gradient).
  // Head: forward, weight gradient and the gradient into the LSTM output.
  const double actor = 2.0 * a * h + lstm + 3.0 * h * p;
  const double critic = 2.0 * c * h + lstm + 3.0 * h * 1.0;
  return actor + critic;
}

namespace {

/// Minibatch PPO scalars, gathered from the packed block in `order`.
struct MinibatchScalars {
  std::vector<std::size_t> actions, phase_counts;
  std::vector<double> old_logp, advantages, returns;
};

MinibatchScalars gather(const tsc::core::PackedSampleBlock& block,
                        const std::vector<std::size_t>& order, std::size_t begin,
                        std::size_t rows) {
  MinibatchScalars s;
  s.actions.resize(rows);
  s.phase_counts.resize(rows);
  s.old_logp.resize(rows);
  s.advantages.resize(rows);
  s.returns.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t src = order[begin + r];
    s.actions[r] = block.action(src);
    s.phase_counts[r] = block.phase_count(src);
    s.old_logp[r] = block.log_prob(src);
    s.advantages[r] = block.advantage(src);
    s.returns[r] = block.ret(src);
  }
  return s;
}

void copy_row(const double* src, std::size_t width, Tensor& dst, std::size_t row) {
  std::copy(src, src + width, dst.data() + row * width);
}

/// The six network inputs of one minibatch, packed into workspace slots in
/// the order the production fused update acquires them.
struct MinibatchInputs {
  Tensor* input;
  Tensor* h_a;
  Tensor* c_a;
  Tensor* v_input;
  Tensor* h_v;
  Tensor* c_v;
};

MinibatchInputs pack(tsc::nn::BackwardWorkspace& ws,
                     const tsc::core::PackedSampleBlock& block,
                     const std::vector<std::size_t>& order, std::size_t begin,
                     std::size_t rows) {
  const std::size_t hidden = block.hidden();
  MinibatchInputs in{&ws.acquire(rows, block.obs_dim()),
                     &ws.acquire(rows, hidden),
                     &ws.acquire(rows, hidden),
                     &ws.acquire(rows, block.critic_dim()),
                     &ws.acquire(rows, hidden),
                     &ws.acquire(rows, hidden)};
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t src = order[begin + r];
    copy_row(block.obs_row(src), block.obs_dim(), *in.input, r);
    copy_row(block.h_actor_row(src), hidden, *in.h_a, r);
    copy_row(block.c_actor_row(src), hidden, *in.c_a, r);
    copy_row(block.critic_obs_row(src), block.critic_dim(), *in.v_input, r);
    copy_row(block.h_critic_row(src), hidden, *in.h_v, r);
    copy_row(block.c_critic_row(src), hidden, *in.c_v, r);
  }
  return in;
}

}  // namespace

UpdateReplay::UpdateReplay(PairUpLightTrainer& trainer) : trainer_(trainer) {
  const auto& config = trainer.config();
  const NetShape shape = net_shape(trainer);
  tsc::Rng init_rng(0x5eedULL);
  for (std::size_t m = 0; m < trainer.num_models(); ++m) {
    Model model;
    model.actor = std::make_unique<CoordinatedActor>(
        trainer.actor(m).obs_dim(), config.msg_dim, shape.hidden, shape.phases, init_rng);
    model.critic = std::make_unique<CentralizedCritic>(shape.critic_in, shape.hidden,
                                                       init_rng);
    model.params = model.actor->parameters();
    model.actor_count = model.params.size();
    for (Parameter* p : model.critic->parameters()) model.params.push_back(p);
    tsc::nn::Adam::Config adam;
    adam.lr = config.ppo.lr;
    model.optim = std::make_unique<tsc::nn::Adam>(model.params, adam);
    models_.push_back(std::move(model));
  }
}

ReplayResult UpdateReplay::run(tsc::rl::RolloutBuffer& buffer, double scale) {
  for (std::size_t m = 0; m < models_.size(); ++m) {
    models_[m].actor->copy_weights_from(trainer_.actor(m));
    models_[m].critic->copy_weights_from(trainer_.critic(m));
  }
  ReplayResult out;
  const double start = now_seconds();
  const auto all = buffer.flatten(trainer_.config().ppo.normalize_advantages);
  if (models_.size() == 1) {
    replay_model(models_[0], all, out);
  } else {
    for (std::size_t i = 0; i < buffer.num_agents(); ++i) {
      std::vector<const tsc::rl::Sample*> mine;
      for (const tsc::rl::Sample& s : buffer.agent_samples(i)) mine.push_back(&s);
      replay_model(models_.at(i), mine, out);
    }
  }
  out.total = now_seconds() - start;
  out.pack = out.total - (out.actor_fwd + out.critic_fwd + out.ppo_loss + out.actor_bwd +
                          out.critic_bwd + out.clip + out.adam);
  for (double* t : {&out.total, &out.pack, &out.actor_fwd, &out.critic_fwd, &out.ppo_loss,
                    &out.actor_bwd, &out.critic_bwd, &out.clip, &out.adam})
    *t *= scale;
  return out;
}

void UpdateReplay::replay_model(Model& model,
                                const std::vector<const tsc::rl::Sample*>& samples,
                                ReplayResult& out) {
  if (samples.empty()) return;
  const auto& config = trainer_.config();
  CoordinatedActor& actor = *model.actor;
  CentralizedCritic& critic = *model.critic;
  tsc::core::PackedSampleBlock block;
  block.build(samples, actor.input_dim(), critic.input_dim(), actor.hidden_size());

  std::vector<std::size_t> order(samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<Tensor*> sinks;
  for (Parameter* p : model.params) sinks.push_back(&p->grad);

  const std::size_t minibatch = std::max<std::size_t>(1, config.ppo.minibatch);
  for (std::size_t epoch = 0; epoch < config.ppo.epochs; ++epoch) {
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[shuffle_rng_.uniform_int(i)]);
    for (std::size_t begin = 0; begin < order.size(); begin += minibatch) {
      const std::size_t rows = std::min(order.size(), begin + minibatch) - begin;
      const MinibatchScalars s = gather(block, order, begin, rows);
      ws_.begin_pass();
      const MinibatchInputs in = pack(ws_, block, order, begin, rows);
      actor.zero_grad();
      critic.zero_grad();

      double t = now_seconds();
      auto lap = [&t](double& into) {
        const double now = now_seconds();
        into += now - t;
        t = now;
      };
      CoordinatedActor::TrainActivations a_acts;
      const Tensor& logits =
          actor.forward_train(ws_, *in.input, *in.h_a, *in.c_a, s.phase_counts, a_acts);
      lap(out.actor_fwd);
      CentralizedCritic::TrainActivations c_acts;
      const Tensor& values =
          critic.forward_train(ws_, *in.v_input, *in.h_v, *in.c_v, c_acts);
      lap(out.critic_fwd);
      Tensor& p = ws_.acquire(rows, actor.max_phases());
      Tensor& logp = ws_.acquire(rows, actor.max_phases());
      Tensor& dlogits = ws_.acquire(rows, actor.max_phases());
      Tensor& dvalues = ws_.acquire(rows, 1);
      tsc::rl::fused_ppo_loss_grad(logits, values, s.actions, s.old_logp,
                                   s.advantages, s.returns, rows, config.ppo, p, logp,
                                   dlogits, dvalues);
      lap(out.ppo_loss);
      actor.backward_train(ws_, a_acts, dlogits, sinks.data());
      lap(out.actor_bwd);
      critic.backward_train(ws_, c_acts, dvalues, sinks.data() + model.actor_count);
      lap(out.critic_bwd);
      tsc::nn::clip_grad_norm(model.params, config.ppo.max_grad_norm);
      lap(out.clip);
      model.optim->step();
      lap(out.adam);
      ++out.minibatches;
      out.rows += rows;
    }
  }
}

double minibatch_loss(PairUpLightTrainer& trainer,
                      const std::vector<const tsc::rl::Sample*>& samples,
                      tsc::nn::BackwardWorkspace& ws) {
  if (samples.empty()) throw std::invalid_argument("minibatch_loss: no samples");
  const auto& config = trainer.config();
  const CoordinatedActor& actor = trainer.actor(0);
  const CentralizedCritic& critic = trainer.critic(0);
  const std::size_t rows =
      std::min(samples.size(), std::max<std::size_t>(1, config.ppo.minibatch));
  std::vector<const tsc::rl::Sample*> head(samples.begin(), samples.begin() + rows);
  tsc::core::PackedSampleBlock block;
  block.build(head, actor.input_dim(), critic.input_dim(), actor.hidden_size());
  std::vector<std::size_t> order(rows);
  for (std::size_t i = 0; i < rows; ++i) order[i] = i;
  const MinibatchScalars s = gather(block, order, 0, rows);
  ws.begin_pass();
  const MinibatchInputs in = pack(ws, block, order, 0, rows);
  CoordinatedActor::TrainActivations a_acts;
  const Tensor& logits =
      actor.forward_train(ws, *in.input, *in.h_a, *in.c_a, s.phase_counts, a_acts);
  CentralizedCritic::TrainActivations c_acts;
  const Tensor& values = critic.forward_train(ws, *in.v_input, *in.h_v, *in.c_v, c_acts);
  Tensor& p = ws.acquire(rows, actor.max_phases());
  Tensor& logp = ws.acquire(rows, actor.max_phases());
  Tensor& dlogits = ws.acquire(rows, actor.max_phases());
  Tensor& dvalues = ws.acquire(rows, 1);
  return tsc::rl::fused_ppo_loss_grad(logits, values, s.actions, s.old_logp, s.advantages,
                                      s.returns, rows, config.ppo, p, logp, dlogits,
                                      dvalues);
}

namespace {

/// Median over `reps` runs of `fn`'s wall time (one warm-up call first).
template <typename Fn>
double time_call(std::size_t reps, Fn&& fn) {
  fn();
  std::vector<double> times;
  times.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    fn();
    times.push_back(now_seconds() - t0);
  }
  return median(times);
}

/// One network's layers rebuilt standalone with model 0's weights.
struct StandaloneNet {
  StandaloneNet(const std::vector<Parameter*>& params, std::size_t in, std::size_t hidden,
                std::size_t out, tsc::Rng& rng)
      : embed(in, hidden, rng), lstm(hidden, hidden, rng), head(hidden, out, rng) {
    embed.weight.value = params.at(0)->value;
    embed.bias.value = params.at(1)->value;
    lstm.w_x.value = params.at(2)->value;
    lstm.w_h.value = params.at(3)->value;
    lstm.bias.value = params.at(4)->value;
    head.weight.value = params.at(5)->value;
    head.bias.value = params.at(6)->value;
  }
  tsc::nn::Linear embed;
  tsc::nn::LstmCell lstm;
  tsc::nn::Linear head;
};

/// Times of one network's layer calls at one row count, in seconds.
LayerResult time_network(StandaloneNet& net, const Tensor& input, const Tensor& h,
                         const Tensor& c, const Tensor& dhead, std::size_t reps) {
  tsc::nn::BackwardWorkspace ws;
  const std::size_t rows = input.rows();
  const std::size_t hidden = h.cols();
  Tensor dw_embed = Tensor::zeros_like(net.embed.weight.value);
  Tensor db_embed = Tensor::zeros_like(net.embed.bias.value);
  Tensor dwx = Tensor::zeros_like(net.lstm.w_x.value);
  Tensor dwh = Tensor::zeros_like(net.lstm.w_h.value);
  Tensor db_lstm = Tensor::zeros_like(net.lstm.bias.value);
  Tensor dw_head = Tensor::zeros_like(net.head.weight.value);
  Tensor db_head = Tensor::zeros_like(net.head.bias.value);

  // Forward once to obtain the activations the backward calls read.
  ws.begin_pass();
  Tensor& x = const_cast<Tensor&>(net.embed.forward_inference(ws.fwd(), input));
  tsc::nn::tanh_inplace(x);
  const auto state = net.lstm.forward_train(ws, x, h, c);

  LayerResult r;
  tsc::nn::InferenceWorkspace fwd_ws;
  fwd_ws.set_batched_gemm(true);  // the training forwards' GEMM kernel
  tsc::nn::BackwardWorkspace lstm_ws;
  r.linear_fwd = time_call(reps, [&] {
                   fwd_ws.begin_pass();
                   net.embed.forward_inference(fwd_ws, input);
                 }) +
                 time_call(reps, [&] {
                   fwd_ws.begin_pass();
                   net.head.forward_inference(fwd_ws, *state.h);
                 });
  r.lstm_fwd = time_call(reps, [&] {
    lstm_ws.begin_pass();
    net.lstm.forward_train(lstm_ws, x, h, c);
  });
  Tensor dh = Tensor::zeros(rows, hidden);
  Tensor dx = Tensor::zeros(rows, hidden);
  r.linear_bwd = time_call(reps, [&] {
                   dw_head.fill(0.0);
                   db_head.fill(0.0);
                   dh.fill(0.0);
                   net.head.backward_train(*state.h, dhead, dw_head, db_head, &dh);
                 }) +
                 time_call(reps, [&] {
                   // dh stands in for the embedding's output gradient (same
                   // shape); the kernels skip zeros in `input`, not in it.
                   dw_embed.fill(0.0);
                   db_embed.fill(0.0);
                   net.embed.backward_train(input, dh, dw_embed, db_embed, nullptr);
                 });
  r.lstm_bwd = time_call(reps, [&] {
    dwx.fill(0.0);
    dwh.fill(0.0);
    db_lstm.fill(0.0);
    dx.fill(0.0);
    lstm_ws.begin_pass();
    net.lstm.backward_train(lstm_ws, x, h, c, state, dh, dwx, dwh, db_lstm, &dx);
  });
  return r;
}

Tensor rows_of(const std::vector<const tsc::rl::Sample*>& samples, std::size_t rows,
               const std::vector<double> tsc::rl::Sample::*field) {
  const std::size_t width = (samples.front()->*field).size();
  Tensor t = Tensor::zeros(rows, width);
  for (std::size_t r = 0; r < rows; ++r)
    copy_row((samples[r]->*field).data(), width, t, r);
  return t;
}

}  // namespace

LayerResult probe_layers(PairUpLightTrainer& trainer,
                         const std::vector<const tsc::rl::Sample*>& samples,
                         std::size_t update_rows) {
  if (samples.empty()) throw std::invalid_argument("probe_layers: no samples");
  const auto& config = trainer.config();
  const NetShape shape = net_shape(trainer);
  const std::size_t rows =
      std::min(samples.size(), std::max<std::size_t>(1, config.ppo.minibatch));
  constexpr std::size_t kReps = 9;
  tsc::Rng rng(0x1a7e5ULL);

  StandaloneNet actor(trainer.actor(0).parameters(), shape.actor_in, shape.hidden,
                      shape.phases, rng);
  StandaloneNet critic(trainer.critic(0).parameters(), shape.critic_in, shape.hidden, 1,
                       rng);
  using tsc::rl::Sample;
  Tensor dlogits = Tensor::zeros(rows, shape.phases);
  Tensor dvalues = Tensor::zeros(rows, 1);
  for (std::size_t i = 0; i < dlogits.size(); ++i) dlogits[i] = rng.normal(0.0, 0.01);
  for (std::size_t i = 0; i < dvalues.size(); ++i) dvalues[i] = rng.normal(0.0, 0.01);

  const LayerResult a =
      time_network(actor, rows_of(samples, rows, &Sample::obs),
                   rows_of(samples, rows, &Sample::h_actor),
                   rows_of(samples, rows, &Sample::c_actor), dlogits, kReps);
  const LayerResult c =
      time_network(critic, rows_of(samples, rows, &Sample::critic_obs),
                   rows_of(samples, rows, &Sample::h_critic),
                   rows_of(samples, rows, &Sample::c_critic), dvalues, kReps);
  const double calls = static_cast<double>(update_rows) / static_cast<double>(rows);
  LayerResult total;
  total.lstm_fwd = (a.lstm_fwd + c.lstm_fwd) * calls;
  total.lstm_bwd = (a.lstm_bwd + c.lstm_bwd) * calls;
  total.linear_fwd = (a.linear_fwd + c.linear_fwd) * calls;
  total.linear_bwd = (a.linear_bwd + c.linear_bwd) * calls;
  return total;
}

InferenceProbe::Batch InferenceProbe::make_batch(std::size_t step,
                                                std::size_t first_agent,
                                                std::size_t agents) const {
  const std::size_t hidden = trainer_.config().hidden;
  auto sample_of = [&](std::size_t agent) -> const tsc::rl::Sample& {
    const auto& mine = buffer_.agent_samples(agent);
    if (mine.empty())
      throw std::invalid_argument("InferenceProbe: agent without samples");
    return mine[std::min(step, mine.size() - 1)];
  };
  Batch b;
  const tsc::rl::Sample& s0 = sample_of(first_agent);
  b.input = Tensor::zeros(agents, s0.obs.size());
  b.h_a = Tensor::zeros(agents, hidden);
  b.c_a = Tensor::zeros(agents, hidden);
  b.v_input = Tensor::zeros(agents, s0.critic_obs.size());
  b.h_v = Tensor::zeros(agents, hidden);
  b.c_v = Tensor::zeros(agents, hidden);
  for (std::size_t r = 0; r < agents; ++r) {
    const tsc::rl::Sample& s = sample_of(first_agent + r);
    copy_row(s.obs.data(), s.obs.size(), b.input, r);
    copy_row(s.h_actor.data(), hidden, b.h_a, r);
    copy_row(s.c_actor.data(), hidden, b.c_a, r);
    copy_row(s.critic_obs.data(), s.critic_obs.size(), b.v_input, r);
    copy_row(s.h_critic.data(), hidden, b.h_v, r);
    copy_row(s.c_critic.data(), hidden, b.c_v, r);
    b.phase_counts.push_back(s.phase_count);
  }
  return b;
}

InferenceResult InferenceProbe::time_step(std::size_t step) {
  // A shared model runs every agent's row in one call; per-agent models
  // (batch m = model m) run one row each.
  std::vector<Batch> batches;
  if (trainer_.num_models() == 1) {
    batches.push_back(make_batch(step, 0, buffer_.num_agents()));
  } else {
    for (std::size_t i = 0; i < buffer_.num_agents(); ++i)
      batches.push_back(make_batch(step, i, 1));
  }
  auto actors = [&] {
    for (std::size_t m = 0; m < batches.size(); ++m) {
      ws_.begin_pass();
      trainer_.actor(m).forward_inference(ws_, batches[m].input, batches[m].h_a,
                                          batches[m].c_a, batches[m].phase_counts);
    }
  };
  auto critics = [&] {
    for (std::size_t m = 0; m < batches.size(); ++m) {
      ws_.begin_pass();
      trainer_.critic(m).forward_inference(ws_, batches[m].v_input, batches[m].h_v,
                                           batches[m].c_v);
    }
  };
  if (!warm_) {  // size the workspace once, outside any timing
    apply_kernel_tier(trainer_.config(), ws_);
    actors();
    critics();
    warm_ = true;
  }
  InferenceResult r;
  double t0 = now_seconds();
  actors();
  r.actor = now_seconds() - t0;
  t0 = now_seconds();
  critics();
  r.critic = now_seconds() - t0;
  return r;
}

}  // namespace trainbench
