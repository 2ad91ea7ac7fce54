// Side-by-side comparison of all five control methods on one congested
// scenario, including their communication footprints - a miniature of the
// paper's whole evaluation on a 4x4 grid.
//
// Usage: compare_controllers [episodes]
#include <cstdio>
#include <stdexcept>

#include "src/baselines/colight.hpp"
#include "src/baselines/fixed_time.hpp"
#include "src/baselines/ma2c.hpp"
#include "src/baselines/single_agent.hpp"
#include "src/core/trainer.hpp"
#include "src/env/controller.hpp"
#include "src/scenarios/flow_patterns.hpp"
#include "src/scenarios/grid.hpp"
#include "src/util/parse.hpp"

int main(int argc, char** argv) {
  using namespace tsc;
  std::size_t episodes = 8;
  try {
    if (argc > 1) episodes = util::require_u64(argv[1], "episodes");
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "compare_controllers: %s\n", e.what());
    return 2;
  }

  scenario::GridConfig grid_config;
  grid_config.rows = 4;
  grid_config.cols = 4;
  scenario::GridScenario grid(grid_config);
  scenario::FlowPatternConfig flow_config;
  flow_config.time_scale = 0.1;
  auto flows =
      scenario::make_flow_pattern(grid, scenario::FlowPattern::kPattern1, flow_config);
  env::EnvConfig env_config;
  env_config.episode_seconds = 360.0;
  env::TscEnv environment(&grid.net(), std::move(flows), env_config, 1);

  std::printf("comparing 5 controllers on a 4x4 grid, pattern F1, %zu training "
              "episodes each\n\n",
              episodes);

  core::PairUpLightTrainer pairup(&environment, core::PairUpConfig{});
  baselines::SingleAgentPpoTrainer single(&environment,
                                          baselines::SingleAgentConfig{});
  baselines::Ma2cTrainer ma2c(&environment, baselines::Ma2cConfig{});
  baselines::CoLightConfig colight_config;
  colight_config.epsilon_decay_episodes = episodes * 2 / 3;
  baselines::CoLightTrainer colight(&environment, colight_config);

  for (std::size_t e = 0; e < episodes; ++e) {
    pairup.train_episode();
    single.train_episode();
    ma2c.train_episode();
    colight.train_episode();
    std::printf("trained episode %zu/%zu\r", e + 1, episodes);
    std::fflush(stdout);
  }
  std::printf("\n\n");

  baselines::FixedTimeController fixed_time;
  auto p = pairup.make_controller();
  auto s = single.make_controller();
  auto m = ma2c.make_controller();
  auto c = colight.make_controller();

  struct Entry {
    env::Controller* controller;
    std::size_t comm_bits;
  };
  const Entry entries[] = {
      {&fixed_time, 0},
      {s.get(), 0},
      {m.get(), ma2c.comm_bits_per_step()},
      {c.get(), colight.comm_bits_per_step()},
      {p.get(), pairup.comm_bits_per_step()},
  };

  std::printf("%-22s %14s %12s %12s %14s\n", "controller", "travel_time_s",
              "avg_wait_s", "finished", "comm_bits/step");
  for (const Entry& entry : entries) {
    const auto stats = env::run_episode(environment, *entry.controller, 999);
    std::printf("%-22s %14.1f %12.2f %7zu/%-4zu %14zu\n",
                entry.controller->name().c_str(), stats.travel_time,
                stats.avg_wait, stats.vehicles_finished, stats.vehicles_spawned,
                entry.comm_bits);
  }
  return 0;
}
