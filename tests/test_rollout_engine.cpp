// The rollout engine (core/rollout_engine.hpp) and the tape-free inference
// kernels it runs on (nn/inference.hpp).
//
// Network level: forward_inference must reproduce the tape forward's
// floating-point results exactly — logits, messages, LSTM states, values —
// across steps with the LSTM state carried per path and heterogeneous phase
// counts; the tiled GEMM must match the reference loop bit for bit.
// Engine level: one engine over several slots must match one-slot engines
// byte for byte (the slicing invariance threaded collection relies on),
// and every engine's workspace and state slabs must stop allocating once
// warm. Whole-episode trajectories are pinned in test_rollout_goldens.cpp.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <memory>
#include <vector>

#include "src/core/actor.hpp"
#include "src/core/critic.hpp"
#include "src/core/rollout_engine.hpp"
#include "src/core/trainer.hpp"
#include "src/nn/inference.hpp"
#include "src/nn/tape.hpp"
#include "src/rl/rollout.hpp"
#include "src/scenarios/grid.hpp"
#include "src/scenarios/monaco.hpp"
#include "src/util/rng.hpp"

namespace tsc {
namespace {

// Exact equality (modulo zero sign, like the parallel-update suite):
// EXPECT_DOUBLE_EQ would allow 4 ULP of drift, which is precisely what
// these tests exist to rule out.
void expect_tensor_identical(const nn::Tensor& a, const nn::Tensor& b,
                             const char* what, std::size_t step) {
  ASSERT_EQ(a.rows(), b.rows()) << what << " step " << step;
  ASSERT_EQ(a.cols(), b.cols()) << what << " step " << step;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      EXPECT_EQ(a.at(r, c), b.at(r, c))
          << what << " step " << step << " at (" << r << "," << c << ")";
}

// ---------------------------------------------------------------------------
// Direct network-level parity: tape forward vs forward_inference over
// several steps, each path carrying its own LSTM state.

TEST(InferencePath, ActorForwardMatchesTapeBitForBit) {
  const std::size_t obs_dim = 6, msg_dim = 2, hidden = 8, max_phases = 4;
  const std::size_t batch = 3;
  // Heterogeneous phase counts: rows 0 and 2 get masked (-1e9) logits.
  const std::vector<std::size_t> phase_counts = {2, 4, 3};
  Rng weight_rng(11);
  core::CoordinatedActor actor(obs_dim, msg_dim, hidden, max_phases, weight_rng);

  Rng input_rng(21);
  nn::InferenceWorkspace ws;
  std::vector<double> tape_h(batch * hidden, 0.0), tape_c(batch * hidden, 0.0);
  std::vector<double> inf_h(batch * hidden, 0.0), inf_c(batch * hidden, 0.0);

  for (std::size_t step = 0; step < 5; ++step) {
    std::vector<double> input(batch * (obs_dim + msg_dim));
    for (double& x : input) x = input_rng.uniform(-1.0, 1.0);

    // Tape path.
    nn::Tape tape;
    const auto out = actor.forward(
        tape, tape.constant(nn::Tensor::matrix(batch, obs_dim + msg_dim, input)),
        tape.constant(nn::Tensor::matrix(batch, hidden, tape_h)),
        tape.constant(nn::Tensor::matrix(batch, hidden, tape_c)), phase_counts);

    // Inference path (inputs copied into workspace buffers, like the
    // rollout engine's row packing).
    ws.begin_pass();
    nn::Tensor& x_in = ws.acquire(batch, obs_dim + msg_dim);
    std::copy(input.begin(), input.end(), x_in.data());
    nn::Tensor& h_in = ws.acquire(batch, hidden);
    std::copy(inf_h.begin(), inf_h.end(), h_in.data());
    nn::Tensor& c_in = ws.acquire(batch, hidden);
    std::copy(inf_c.begin(), inf_c.end(), c_in.data());
    const auto inf = actor.forward_inference(ws, x_in, h_in, c_in, phase_counts);

    expect_tensor_identical(tape.value(out.logits), *inf.logits, "logits", step);
    expect_tensor_identical(tape.value(out.message), *inf.message, "message", step);
    expect_tensor_identical(tape.value(out.state.h), *inf.h, "h", step);
    expect_tensor_identical(tape.value(out.state.c), *inf.c, "c", step);
    // Masked columns (raw logit + -1e9) are hugely negative on both paths;
    // their exact equality is covered by the tensor compare above.
    EXPECT_LT(tape.value(out.logits).at(0, 3), -1e8);
    EXPECT_LT(inf.logits->at(0, 3), -1e8);

    // Carry each path's recurrent state independently; workspace tensors die
    // at the next begin_pass(), so copy them out now.
    const nn::Tensor& th = tape.value(out.state.h);
    const nn::Tensor& tc = tape.value(out.state.c);
    tape_h.assign(th.data(), th.data() + batch * hidden);
    tape_c.assign(tc.data(), tc.data() + batch * hidden);
    inf_h.assign(inf.h->data(), inf.h->data() + batch * hidden);
    inf_c.assign(inf.c->data(), inf.c->data() + batch * hidden);
  }
}

TEST(InferencePath, CriticForwardMatchesTapeBitForBit) {
  const std::size_t input_dim = 10, hidden = 8, batch = 3;
  Rng weight_rng(13);
  core::CentralizedCritic critic(input_dim, hidden, weight_rng);

  Rng input_rng(23);
  nn::InferenceWorkspace ws;
  std::vector<double> tape_h(batch * hidden, 0.0), tape_c(batch * hidden, 0.0);
  std::vector<double> inf_h(batch * hidden, 0.0), inf_c(batch * hidden, 0.0);

  for (std::size_t step = 0; step < 5; ++step) {
    std::vector<double> input(batch * input_dim);
    for (double& x : input) x = input_rng.uniform(-1.0, 1.0);

    nn::Tape tape;
    const auto out = critic.forward(
        tape, tape.constant(nn::Tensor::matrix(batch, input_dim, input)),
        tape.constant(nn::Tensor::matrix(batch, hidden, tape_h)),
        tape.constant(nn::Tensor::matrix(batch, hidden, tape_c)));

    ws.begin_pass();
    nn::Tensor& x_in = ws.acquire(batch, input_dim);
    std::copy(input.begin(), input.end(), x_in.data());
    nn::Tensor& h_in = ws.acquire(batch, hidden);
    std::copy(inf_h.begin(), inf_h.end(), h_in.data());
    nn::Tensor& c_in = ws.acquire(batch, hidden);
    std::copy(inf_c.begin(), inf_c.end(), c_in.data());
    const auto inf = critic.forward_inference(ws, x_in, h_in, c_in);

    expect_tensor_identical(tape.value(out.value), *inf.value, "value", step);
    expect_tensor_identical(tape.value(out.state.h), *inf.h, "h", step);
    expect_tensor_identical(tape.value(out.state.c), *inf.c, "c", step);

    const nn::Tensor& th = tape.value(out.state.h);
    const nn::Tensor& tc = tape.value(out.state.c);
    tape_h.assign(th.data(), th.data() + batch * hidden);
    tape_c.assign(tc.data(), tc.data() + batch * hidden);
    inf_h.assign(inf.h->data(), inf.h->data() + batch * hidden);
    inf_c.assign(inf.c->data(), inf.c->data() + batch * hidden);
  }
}

// ---------------------------------------------------------------------------
// Fixtures: the 2x2 grid whose seed-7 trajectory test_parallel_rollout.cpp
// pins, and the shrunk heterogeneous Monaco network (one model per agent).

struct GridFixture {
  scenario::GridScenario grid;
  env::TscEnv environment;

  GridFixture()
      : grid(make_grid()),
        environment(&grid.net(), make_flows(grid), make_env_config(), 1) {}

  static scenario::GridScenario make_grid() {
    scenario::GridConfig config;
    config.rows = 2;
    config.cols = 2;
    return scenario::GridScenario(config);
  }
  static std::vector<sim::FlowSpec> make_flows(const scenario::GridScenario& g) {
    std::vector<sim::FlowSpec> flows;
    for (std::size_t c = 0; c < 2; ++c) {
      sim::FlowSpec f;
      f.route = g.route(g.north_terminal(c), g.south_terminal(c));
      f.profile = {{0.0, 400.0}, {200.0, 400.0}};
      flows.push_back(f);
    }
    return flows;
  }
  static env::EnvConfig make_env_config() {
    env::EnvConfig config;
    config.episode_seconds = 100.0;
    return config;
  }

  core::PairUpConfig fast_config() {
    core::PairUpConfig config;
    config.hidden = 16;
    config.ppo.epochs = 1;
    config.ppo.minibatch = 32;
    config.seed = 7;
    return config;
  }
};

struct MonacoFixture {
  scenario::MonacoScenario monaco;
  env::TscEnv environment;
  MonacoFixture()
      : monaco(make_config()),
        environment(&monaco.net(), monaco.make_flows(700.0, 0.05, 4, 13),
                    make_env_config(), 1) {}
  static scenario::MonacoConfig make_config() {
    scenario::MonacoConfig config;
    config.grid_rows = 4;
    config.grid_cols = 3;
    return config;
  }
  static env::EnvConfig make_env_config() {
    env::EnvConfig config;
    config.episode_seconds = 120.0;
    return config;
  }
};

/// A rollout engine over `trainer`'s live models.
std::unique_ptr<core::RolloutEngine> engine_over(
    const core::PairUpConfig& config, core::PairUpLightTrainer& trainer) {
  std::vector<const core::CoordinatedActor*> actors;
  std::vector<const core::CentralizedCritic*> critics;
  for (std::size_t m = 0; m < trainer.num_models(); ++m) {
    actors.push_back(&trainer.actor(m));
    critics.push_back(&trainer.critic(m));
  }
  return std::make_unique<core::RolloutEngine>(config, std::move(actors),
                                               std::move(critics),
                                               trainer.hop1_slots(),
                                               trainer.hop2_slots());
}

// ---------------------------------------------------------------------------
// Zero steady-state allocation: after the workspace has seen every pass
// shape once (act passes during rollout, bootstrap passes at episode end,
// greedy eval passes), further episodes must not allocate at all.

TEST(InferencePath, WorkspaceStopsAllocatingAfterWarmup) {
  GridFixture f;
  core::PairUpLightTrainer trainer(&f.environment, f.fast_config());

  // Warm-up: one training episode (act + bootstrap pass shapes) and one
  // greedy evaluation (eval pass shape) grow every slot to peak capacity.
  trainer.train_episode();
  trainer.eval_episode(41);
  const std::size_t warm_events = trainer.rollout_alloc_events();
  EXPECT_GT(warm_events, 0u);  // the engine really ran through its workspace

  // Steady state: whole further episodes reuse the warm buffers exactly.
  trainer.train_episode();
  trainer.eval_episode(42);
  trainer.train_episode();
  EXPECT_EQ(trainer.rollout_alloc_events(), warm_events)
      << "rollout engine allocated after warmup";
}

// ---------------------------------------------------------------------------
// The tiled GEMM every forward runs must match the reference loop bit for
// bit (for finite inputs), zero-skip and ragged tails included.

TEST(FleetBatched, BatchedGemmMatchesReferenceBitForBit) {
  Rng rng(5);
  const struct Shape {
    std::size_t m, k, n;
  } shapes[] = {
      {1, 3, 5},      // single row, ragged columns
      {4, 8, 8},      // below the row blocking
      {7, 16, 8},     // row tail only
      {8, 64, 256},   // exact 8x16 tiles (the LSTM gate shape)
      {17, 33, 19},   // ragged everything
      {36, 64, 256},  // per-agent-path batch
      {144, 64, 8},   // fleet-sized batch, narrow head
      {5, 1, 1},      // degenerate inner/outer dims
  };
  for (const Shape& s : shapes) {
    nn::Tensor a = nn::Tensor::zeros(s.m, s.k);
    nn::Tensor b = nn::Tensor::zeros(s.k, s.n);
    // Sparse A exercises the reference kernel's zero-skip against the
    // branch-free SIMD tiles (the ±0.0 equivalence argument in tensor.cpp).
    for (double& x : a.values())
      x = rng.bernoulli(0.3) ? 0.0 : rng.uniform(-2.0, 2.0);
    for (double& x : b.values()) x = rng.uniform(-2.0, 2.0);
    nn::Tensor ref, bat;
    nn::matmul_into(ref, a, b);
    nn::matmul_into_batched(bat, a, b);
    ASSERT_EQ(ref.rows(), bat.rows());
    ASSERT_EQ(ref.cols(), bat.cols());
    for (std::size_t r = 0; r < ref.rows(); ++r)
      for (std::size_t c = 0; c < ref.cols(); ++c)
        ASSERT_EQ(ref.at(r, c), bat.at(r, c))
            << "[" << s.m << "x" << s.k << "x" << s.n << "] at (" << r << ","
            << c << ")";
  }
}

TEST(FleetBatched, AllocEventsSteadyStateZeroAcrossFleetSizes) {
  // The engine extension of the allocation contract: warmup (first
  // episodes at a new peak slot count) may allocate; steady state —
  // including across episode resets and slot-count changes — is exactly
  // zero.
  GridFixture f;
  const core::PairUpConfig config = f.fast_config();
  core::PairUpLightTrainer trainer(&f.environment, config);
  auto engine = engine_over(config, trainer);

  auto run = [&](std::size_t k) {
    std::vector<std::unique_ptr<env::TscEnv>> envs;
    std::vector<rl::RolloutBuffer> buffers;
    std::vector<Rng> rngs;
    for (std::size_t w = 0; w < k; ++w) {
      envs.push_back(f.environment.clone(100 + w));
      buffers.push_back(rl::RolloutBuffer(f.environment.num_agents()));
      rngs.push_back(Rng(200 + w));
    }
    std::vector<core::RolloutSlot> slots;
    for (std::size_t w = 0; w < k; ++w)
      slots.push_back(
          core::RolloutSlot{envs[w].get(), 300 + w, &rngs[w], &buffers[w]});
    engine->run_episodes(slots, /*train_mode=*/true, 0.1);
  };

  run(4);  // warmup at the peak slot count
  const std::size_t warm = engine->alloc_events();
  EXPECT_GT(warm, 0u);
  run(4);  // steady state: episode reset, same slots
  EXPECT_EQ(engine->alloc_events(), warm) << "engine allocated after warmup";
  run(2);  // fewer slots reuse the existing capacity
  EXPECT_EQ(engine->alloc_events(), warm) << "slot shrink allocated";
  run(4);  // back to the peak: capacities were never released
  EXPECT_EQ(engine->alloc_events(), warm) << "slot re-grow allocated";
}

TEST(FleetBatched, TrainerFleetWorkspaceStopsAllocatingAfterWarmup) {
  // num_envs > 1: every collection slice's engine stops allocating too.
  GridFixture f;
  core::PairUpConfig config = f.fast_config();
  config.num_envs = 2;
  core::PairUpLightTrainer trainer(&f.environment, config);

  trainer.train_episode();
  const std::size_t warm = trainer.rollout_alloc_events();
  EXPECT_GT(warm, 0u);
  trainer.train_episode();
  trainer.train_episode();
  EXPECT_EQ(trainer.rollout_alloc_events(), warm)
      << "rollout engines allocated after warmup";
}

// ---------------------------------------------------------------------------
// Slicing invariance: threaded collection cuts the replicas into contiguous
// slices, one engine each, so a slot's episode must not depend on which
// other slots share its engine. One engine over slots 0-3 must therefore
// leave byte-equal buffers, stats, protocol views and exploration streams
// to four one-slot engines.

void expect_rng_identical(const Rng& a, const Rng& b, std::size_t slot) {
  const Rng::State sa = a.state();
  const Rng::State sb = b.state();
  EXPECT_EQ(0, std::memcmp(sa.s, sb.s, sizeof(sa.s))) << "slot " << slot;
  EXPECT_EQ(0, std::memcmp(&sa.cached_normal, &sb.cached_normal,
                           sizeof(sa.cached_normal)))
      << "slot " << slot;
  EXPECT_EQ(sa.has_cached_normal, sb.has_cached_normal) << "slot " << slot;
}

void expect_samples_identical(const rl::RolloutBuffer& a,
                              const rl::RolloutBuffer& b, std::size_t slot) {
  ASSERT_EQ(a.num_agents(), b.num_agents());
  auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  auto same_row = [&](const std::vector<double>& x, const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  for (std::size_t i = 0; i < a.num_agents(); ++i) {
    const auto& sa = a.agent_samples(i);
    const auto& sb = b.agent_samples(i);
    ASSERT_EQ(sa.size(), sb.size()) << "slot " << slot << " agent " << i;
    for (std::size_t t = 0; t < sa.size(); ++t) {
      const bool equal =
          same_row(sa[t].obs, sb[t].obs) &&
          same_row(sa[t].critic_obs, sb[t].critic_obs) &&
          same_row(sa[t].h_actor, sb[t].h_actor) &&
          same_row(sa[t].c_actor, sb[t].c_actor) &&
          same_row(sa[t].h_critic, sb[t].h_critic) &&
          same_row(sa[t].c_critic, sb[t].c_critic) &&
          sa[t].action == sb[t].action &&
          sa[t].phase_count == sb[t].phase_count &&
          same(sa[t].log_prob, sb[t].log_prob) && same(sa[t].value, sb[t].value) &&
          same(sa[t].reward, sb[t].reward) &&
          same(sa[t].advantage, sb[t].advantage) && same(sa[t].ret, sb[t].ret);
      EXPECT_TRUE(equal) << "slot " << slot << " agent " << i << " step " << t;
    }
  }
}

void expect_stats_bytes_equal(const env::EpisodeStats& a,
                              const env::EpisodeStats& b, std::size_t slot) {
  EXPECT_EQ(0, std::memcmp(&a.avg_wait, &b.avg_wait, sizeof(double))) << slot;
  EXPECT_EQ(0, std::memcmp(&a.travel_time, &b.travel_time, sizeof(double)))
      << slot;
  EXPECT_EQ(0, std::memcmp(&a.delay, &b.delay, sizeof(double))) << slot;
  EXPECT_EQ(0, std::memcmp(&a.mean_reward, &b.mean_reward, sizeof(double)))
      << slot;
  EXPECT_EQ(a.vehicles_finished, b.vehicles_finished) << slot;
  EXPECT_EQ(a.vehicles_spawned, b.vehicles_spawned) << slot;
}

/// Runs slots 0-3 once on one engine and once on four one-slot engines
/// (fresh clones, identical seeds and streams), then compares everything
/// each slot leaves behind.
void run_slicing_check(env::TscEnv& base, const core::PairUpConfig& config,
                       bool train_mode) {
  constexpr std::size_t kSlots = 4;
  core::PairUpLightTrainer trainer(&base, config);
  trainer.train_episode();  // non-trivial weights

  struct Side {
    std::vector<std::unique_ptr<env::TscEnv>> envs;
    std::vector<rl::RolloutBuffer> buffers;
    std::vector<Rng> rngs;
    std::vector<core::RolloutSlot> slots;
  };
  auto make_side = [&] {
    Side side;
    for (std::size_t w = 0; w < kSlots; ++w) {
      side.envs.push_back(base.clone(500 + w));
      side.buffers.push_back(rl::RolloutBuffer(base.num_agents()));
      side.rngs.push_back(Rng(600 + w));
    }
    for (std::size_t w = 0; w < kSlots; ++w)
      side.slots.push_back(core::RolloutSlot{side.envs[w].get(), 700 + w,
                                             &side.rngs[w], &side.buffers[w]});
    return side;
  };
  Side joint = make_side();
  Side sliced = make_side();
  const double epsilon = 0.3;

  auto one = engine_over(config, trainer);
  const auto joint_stats = one->run_episodes(joint.slots, train_mode, epsilon);
  ASSERT_EQ(joint_stats.size(), kSlots);
  for (std::size_t w = 0; w < kSlots; ++w) {
    auto own = engine_over(config, trainer);
    const auto stats =
        own->run_episodes({&sliced.slots[w], 1}, train_mode, epsilon);
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_GT(stats[0].vehicles_spawned, 0u);  // not vacuously equal
    expect_stats_bytes_equal(joint_stats[w], stats[0], w);
    EXPECT_EQ(one->last_partners(w), own->last_partners(0)) << "slot " << w;
    EXPECT_EQ(one->last_messages(w), own->last_messages(0)) << "slot " << w;
    expect_rng_identical(joint.rngs[w], sliced.rngs[w], w);
    EXPECT_EQ(joint.envs[w]->steps_taken(), sliced.envs[w]->steps_taken());
    if (train_mode) {
      EXPECT_GT(joint.buffers[w].total_samples(), 0u);
      expect_samples_identical(joint.buffers[w], sliced.buffers[w], w);
    }
  }
}

TEST(RolloutEngine, SlicesMatchOneEngine) {
  // Random-neighbor pairing makes every slot draw partners from its own
  // stream, so cross-slot stream mixing would show up in the Rng states.
  {
    SCOPED_TRACE("grid, sampled actions, training");
    GridFixture f;
    core::PairUpConfig config = f.fast_config();
    config.pairing = core::PairingStrategy::kRandomNeighbor;
    run_slicing_check(f.environment, config, /*train_mode=*/true);
  }
  {
    SCOPED_TRACE("grid, epsilon-greedy, training");
    GridFixture f;
    core::PairUpConfig config = f.fast_config();
    config.pairing = core::PairingStrategy::kRandomNeighbor;
    config.ppo.sample_actions = false;
    run_slicing_check(f.environment, config, /*train_mode=*/true);
  }
  {
    SCOPED_TRACE("grid, sampled evaluation");
    GridFixture f;
    core::PairUpConfig config = f.fast_config();
    config.pairing = core::PairingStrategy::kRandomNeighbor;
    run_slicing_check(f.environment, config, /*train_mode=*/false);
  }
  {
    SCOPED_TRACE("monaco, one model per agent, training");
    MonacoFixture f;
    core::PairUpConfig config;
    config.hidden = 12;
    config.ppo.epochs = 1;
    config.seed = 7;
    config.parameter_sharing = false;
    run_slicing_check(f.environment, config, /*train_mode=*/true);
  }
}

}  // namespace
}  // namespace tsc
