// Goldens for every PairUpLight decision and for the NN baselines' action
// selection.
//
// The values below were captured from the per-agent decision path (one
// batch per model per env step; threaded env replicas with frozen weight
// copies for num_envs > 1) and, for the *MatchTapePath tests, from the
// autodiff-tape forward, before both were folded into the one batched
// rollout engine (core/rollout_engine.hpp). Each test therefore proves that
// the engine reproduces those paths exactly: every action, log-prob, value,
// stored LSTM state, GAE output, message, stat and trained weight.
//
// Digests (golden_digest.hpp) cover the raw bytes of every value, so a
// single flipped bit anywhere changes them. On a mismatch the failure
// message prints the actual value in the literal form used here.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "golden_digest.hpp"
#include "src/baselines/colight.hpp"
#include "src/baselines/idqn.hpp"
#include "src/baselines/ma2c.hpp"
#include "src/core/trainer.hpp"
#include "src/env/controller.hpp"
#include "src/rl/rollout.hpp"
#include "src/scenarios/grid.hpp"
#include "src/scenarios/monaco.hpp"

namespace tsc {
namespace {

using test::Digest;
using test::digest;

std::uint64_t weights_digest(core::PairUpLightTrainer& trainer) {
  Digest d;
  for (std::size_t m = 0; m < trainer.num_models(); ++m) {
    for (nn::Parameter* p : trainer.actor(m).parameters())
      d.add(p->value.values());
    for (nn::Parameter* p : trainer.critic(m).parameters())
      d.add(p->value.values());
  }
  return d.value();
}

/// Partners and regularized messages at the last decision.
std::uint64_t protocol_digest(const core::PairUpLightTrainer& trainer) {
  Digest d;
  for (std::size_t p : trainer.last_partners())
    d.add(static_cast<std::uint64_t>(p));
  for (const auto& msg : trainer.last_messages()) d.add(msg);
  return d.value();
}

std::uint64_t seeds_digest(const std::vector<std::uint64_t>& seeds) {
  Digest d;
  for (std::uint64_t s : seeds) d.add(s);
  return d.value();
}

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << std::uppercase << v << "ULL";
  return out.str();
}

void expect_digest(std::uint64_t actual, std::uint64_t golden,
                   const std::string& what) {
  EXPECT_EQ(actual, golden) << what << ": actual " << hex(actual);
}

struct StatsGolden {
  double avg_wait, travel_time, delay, mean_reward;
  std::size_t finished, spawned;
};

std::string literal(const env::EpisodeStats& s) {
  std::ostringstream out;
  out.precision(17);
  out << "{" << s.avg_wait << ", " << s.travel_time << ", " << s.delay << ", "
      << s.mean_reward << ", " << s.vehicles_finished << ", "
      << s.vehicles_spawned << "}";
  return out.str();
}

/// Exact equality: EXPECT_DOUBLE_EQ would allow 4 ULP of drift, which is
/// precisely what these goldens exist to rule out.
void expect_stats(const env::EpisodeStats& s, const StatsGolden& g,
                  const std::string& what) {
  const bool equal = s.avg_wait == g.avg_wait &&
                     s.travel_time == g.travel_time && s.delay == g.delay &&
                     s.mean_reward == g.mean_reward &&
                     s.vehicles_finished == g.finished &&
                     s.vehicles_spawned == g.spawned;
  EXPECT_TRUE(equal) << what << ": actual " << literal(s);
}

// The 2x2 fixture whose seed-7 trajectory tests/test_parallel_rollout.cpp
// also pins.
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

  static core::PairUpConfig fast_config() {
    core::PairUpConfig config;
    config.hidden = 16;
    config.ppo.epochs = 1;
    config.ppo.minibatch = 32;
    config.seed = 7;
    return config;
  }
};

// Monaco-like heterogeneous network, shrunk for test speed: without
// parameter sharing every agent is its own model, with its own phase count.
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

// ---------------------------------------------------------------------------
// PairUpLight training, evaluation and deployment.

TEST(InferencePath, TrainerEpisodesMatchTapePath) {
  GridFixture f;
  core::PairUpLightTrainer trainer(&f.environment, GridFixture::fast_config());
  const StatsGolden train[3] = {
      {8, 43.363636363636367, 43.363636363636367, -0.45687500000000003, 5, 22},
      {11.0375, 54.785714285714285, 54.785714285714285, -0.64749999999999985,
       8, 28},
      {13.275, 65.888888888888886, 65.888888888888886, -0.76312500000000005,
       1, 18},
  };
  for (int e = 0; e < 3; ++e)
    expect_stats(trainer.train_episode(), train[e],
                 "train episode " + std::to_string(e));
  expect_digest(weights_digest(trainer), 0xAAD54FF4313DD070ULL, "weights");
  expect_stats(trainer.eval_episode(77),
               {9.2624999999999993, 47.92307692307692, 47.92307692307692,
                -0.54812499999999986, 2, 26},
               "eval episode");
}

TEST(InferencePath, TrainerParityHoldsWithParallelEnvs) {
  GridFixture f;
  core::PairUpConfig config = GridFixture::fast_config();
  config.num_envs = 2;
  core::PairUpLightTrainer trainer(&f.environment, config);
  const StatsGolden train[2] = {
      {7.4124999999999996, 43.388888888888886, 43.388888888888886,
       -0.42781249999999993, 6, 42},
      {4.7437500000000004, 43.107505070993909, 43.107505070993909,
       -0.28312499999999996, 17, 46},
  };
  for (int e = 0; e < 2; ++e)
    expect_stats(trainer.train_episode(), train[e],
                 "train episode " + std::to_string(e));
  expect_digest(weights_digest(trainer), 0xB9F87ED33CC9183CULL, "weights");
  expect_stats(trainer.eval_episode(99),
               {5.7999999999999998, 46.409090909090907, 46.409090909090907,
                -0.34874999999999995, 4, 22},
               "eval episode");
}

struct CollectGolden {
  StatsGolden collect;
  std::size_t env_steps;
  std::uint64_t seeds, buffer;
  StatsGolden train[2];
  std::uint64_t weights, protocol;
  StatsGolden eval;
};

void run_collect_golden(std::size_t num_envs, const CollectGolden& g) {
  GridFixture f;
  core::PairUpConfig config = GridFixture::fast_config();
  config.num_envs = num_envs;
  core::PairUpLightTrainer trainer(&f.environment, config);

  // Raw collection first: every buffer entry, not just the aggregate stats.
  {
    const auto r = trainer.collect_rollouts(12345);
    expect_stats(r.stats, g.collect, "collect");
    EXPECT_EQ(r.env_steps, g.env_steps);
    expect_digest(seeds_digest(trainer.last_episode_seeds()), g.seeds,
                  "episode seeds");
    expect_digest(digest(r.buffer), g.buffer, "collected buffer");
  }
  // Whole training episodes, then evaluation.
  for (int e = 0; e < 2; ++e)
    expect_stats(trainer.train_episode(), g.train[e],
                 "train episode " + std::to_string(e));
  expect_digest(weights_digest(trainer), g.weights, "weights");
  expect_digest(protocol_digest(trainer), g.protocol, "partners + messages");
  expect_stats(trainer.eval_episode(55), g.eval, "eval episode");
}

TEST(FleetBatched, MatchesPerAgentPathSingleEnv) {
  run_collect_golden(
      1, {{9.1374999999999993, 49.1875, 49.1875, -0.510625, 3, 16},
          20,
          0xE71EB185E2EDCC4CULL,
          0xE7931ED4CD2F9040ULL,
          {{5.9375, 44.5, 44.5, -0.35312500000000008, 5, 22},
           {11.5375, 56.285714285714285, 56.285714285714285,
            -0.69750000000000001, 1, 28}},
          0x19CAEA15746CE922ULL,
          0xDD0EE9D8228582B3ULL,
          {9.1875, 44.590909090909093, 44.590909090909093,
                          -0.52687499999999998, 2, 22}});
}

TEST(FleetBatched, MatchesPerAgentPathTwoEnvs) {
  run_collect_golden(
      2, {{9.2312499999999993, 46.129699248120303, 46.129699248120303,
           -0.53125, 8, 47},
          40,
          0x6A1BDB209634CC77ULL,
          0xED0A27C196835430ULL,
          {{7.4124999999999996, 43.388888888888886, 43.388888888888886,
            -0.42781249999999993, 6, 42},
           {4.7437500000000004, 43.107505070993909, 43.107505070993909,
            -0.28312499999999996, 17, 46}},
          0xB9F87ED33CC9183CULL,
          0xA70ED1E5E89C0370ULL,
          {9.1875, 44.590909090909093, 44.590909090909093,
                          -0.52687499999999998, 2, 22}});
}

TEST(FleetBatched, MatchesPerAgentPathFourEnvs) {
  run_collect_golden(
      4, {{6.3843749999999995, 43.704730576441108, 43.704730576441108,
           -0.36812500000000004, 15, 80},
          80,
          0x904C80495C0C1457ULL,
          0x3C8C208D1E5B004CULL,
          {{6.0749999999999993, 41.870915032679733, 41.870915032679733,
            -0.35328124999999999, 13, 76},
           {7.5, 43.608617959927599, 43.608617959927599, -0.42984374999999997,
            23, 90}},
          0xF1E653E89AD74542ULL,
          0xBCB39D45F27ADE5BULL,
          {9.1875, 44.590909090909093, 44.590909090909093,
                          -0.52687499999999998, 2, 22}});
}

TEST(FleetBatched, MatchesPerAgentPathWithInvariantSeeding) {
  struct Golden {
    std::size_t num_envs;
    StatsGolden train[2];
    std::uint64_t seeds[2];
    std::uint64_t weights;
  };
  const Golden goldens[] = {
      {2,
       {{10.274999999999999, 50.930194805194802, 50.930194805194802,
         -0.60062500000000019, 7, 50},
        {7.6437499999999998, 53.863095238095241, 53.863095238095241,
         -0.45468749999999997, 11, 46}},
       {0xB5BE6F179C075D76ULL, 0xE4E468D2D0BC6182ULL},
       0xBEAAA7E84131A9CDULL},
      {4,
       {{8.9593749999999996, 52.396645021645021, 52.396645021645021,
         -0.52765625000000016, 18, 96},
        {7.5718750000000004, 49.908266297972176, 49.908266297972176,
         -0.44249999999999989, 27, 88}},
       {0xF4121BBA33597421ULL, 0x9C39DB5A5BDB5079ULL},
       0x0BE10479B35E30E2ULL},
  };
  for (const Golden& g : goldens) {
    GridFixture f;
    core::PairUpConfig config = GridFixture::fast_config();
    config.num_envs = g.num_envs;
    config.invariant_seeding = true;
    core::PairUpLightTrainer trainer(&f.environment, config);
    const std::string k = "num_envs " + std::to_string(g.num_envs);
    for (int e = 0; e < 2; ++e) {
      expect_stats(trainer.train_episode(), g.train[e],
                   k + " train episode " + std::to_string(e));
      expect_digest(seeds_digest(trainer.last_episode_seeds()), g.seeds[e],
                    k + " episode seeds " + std::to_string(e));
    }
    expect_digest(weights_digest(trainer), g.weights, k + " weights");
  }
}

TEST(FleetBatched, HeterogeneousMonacoBucketsMatchPerAgentPath) {
  MonacoFixture f;
  core::PairUpConfig config;
  config.hidden = 12;
  config.ppo.epochs = 1;
  config.seed = 7;
  config.parameter_sharing = false;
  config.num_envs = 2;
  core::PairUpLightTrainer trainer(&f.environment, config);
  {
    const auto r = trainer.collect_rollouts(777);
    expect_stats(r.stats,
                 {6.1944444444444438, 59.888860802157062, 59.888860802157062,
                  -0.40000000000000008, 5, 155},
                 "collect");
    expect_digest(digest(r.buffer), 0x3E5AA55189D838DDULL, "collected buffer");
  }
  expect_stats(trainer.train_episode(),
               {6.5312499999999991, 60.923761609907118, 60.438787185354691,
                -0.42126736111111118, 4, 168},
               "train episode");
  expect_digest(weights_digest(trainer), 0x8441A8BA39094C19ULL, "weights");
}

TEST(RolloutEngine, EvalEpisodeMatchesPerAgentGolden) {
  // Random-neighbor pairing draws every partner from the trainer's own
  // stream, at evaluation too; the training episode after the evaluation
  // pins the stream's state it leaves behind.
  GridFixture f;
  core::PairUpConfig config = GridFixture::fast_config();
  config.pairing = core::PairingStrategy::kRandomNeighbor;
  core::PairUpLightTrainer trainer(&f.environment, config);
  trainer.train_episode();
  expect_stats(trainer.eval_episode(123),
               {7.3499999999999996, 53.875, 53.875, -0.41687499999999994, 4,
                16},
               "sampled eval");
  expect_digest(protocol_digest(trainer), 0xBEA065E12FDD6CE0ULL,
                "partners + messages");
  expect_stats(trainer.train_episode(),
               {12.275, 55.214285714285715, 55.214285714285715,
                -0.73250000000000015, 5, 28},
               "train episode after eval");
}

TEST(RolloutEngine, ControllerEpisodeMatchesPerAgentGolden) {
  GridFixture f;
  core::PairUpConfig config = GridFixture::fast_config();
  config.pairing = core::PairingStrategy::kRandomNeighbor;
  core::PairUpLightTrainer trainer(&f.environment, config);
  trainer.train_episode();

  auto controller = trainer.make_controller();
  f.environment.reset(321);
  controller->begin_episode(f.environment);
  Digest actions;
  while (!f.environment.done()) {
    const auto a = controller->act(f.environment);
    for (std::size_t x : a) actions.add(static_cast<std::uint64_t>(x));
    f.environment.step(a);
  }
  expect_digest(actions.value(), 0x53B1DEA31CF11185ULL, "controller actions");
  expect_stats(trainer.train_episode(),
               {12.275, 55.214285714285715, 55.214285714285715,
                -0.73250000000000015, 5, 28},
               "train episode after controller");
}

// ---------------------------------------------------------------------------
// NN baselines: training episodes (exploration + learning) and an
// evaluation episode through each baseline's action selection.

TEST(InferencePath, IdqnEpisodesMatchTapePath) {
  GridFixture f;
  baselines::IdqnConfig config;
  config.hidden = 16;
  baselines::IdqnTrainer trainer(&f.environment, config);
  expect_stats(trainer.train_episode(),
               {8.1125000000000007, 52.200000000000003, 52.200000000000003,
                -0.45812500000000006, 4, 15},
               "train episode 0");
  expect_stats(trainer.train_episode(),
               {12.550000000000001, 54.047619047619051, 54.047619047619051,
                -0.71125000000000016, 2, 21},
               "train episode 1");
  expect_stats(trainer.eval_episode(31),
               {5.8250000000000002, 46.045454545454547, 46.045454545454547,
                -0.34062499999999996, 5, 22},
               "eval episode");
}

TEST(InferencePath, Ma2cEpisodesMatchTapePath) {
  GridFixture f;
  baselines::Ma2cConfig config;
  config.hidden = 16;
  baselines::Ma2cTrainer trainer(&f.environment, config);
  expect_stats(trainer.train_episode(),
               {5.8499999999999996, 39.217391304347828, 39.217391304347828,
                -0.33812500000000001, 4, 23},
               "train episode 0");
  expect_stats(trainer.train_episode(),
               {4.4000000000000004, 47.761904761904759, 47.761904761904759,
                -0.2599999999999999, 9, 21},
               "train episode 1");
  expect_stats(trainer.eval_episode(32),
               {12.5375, 53, 53, -0.74437499999999968, 7, 32}, "eval episode");
}

TEST(InferencePath, CoLightEpisodesMatchTapePath) {
  GridFixture f;
  baselines::CoLightConfig config;
  config.embed_dim = 16;
  baselines::CoLightTrainer trainer(&f.environment, config);
  expect_stats(trainer.train_episode(),
               {6.3250000000000002, 50.647058823529413, 50.647058823529413,
                -0.37375000000000003, 2, 17},
               "train episode 0");
  expect_stats(trainer.train_episode(),
               {1.425, 37.10526315789474, 37.10526315789474,
                -0.091874999999999998, 3, 19},
               "train episode 1");
  expect_stats(trainer.eval_episode(33),
               {0.050000000000000003, 33.277777777777779, 33.277777777777779,
                -0.0050000000000000001, 8, 18},
               "eval episode");
}

}  // namespace
}  // namespace tsc
