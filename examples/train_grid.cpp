// Train PairUpLight on the paper's 6x6 grid (flow pattern F1), checkpoint
// the learned networks, and evaluate the policy across all five traffic
// patterns - the paper's full Table II protocol for one method.
//
// Usage: train_grid [episodes] [time_scale]
//   episodes   training episodes (default 20; paper uses 1000)
//   time_scale flow-schedule compression (default 1/6; paper uses 1)
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "src/core/trainer.hpp"
#include "src/env/controller.hpp"
#include "src/nn/serialize.hpp"
#include "src/scenarios/flow_patterns.hpp"
#include "src/scenarios/grid.hpp"
#include "src/util/parse.hpp"

int main(int argc, char** argv) {
  using namespace tsc;
  std::size_t episodes = 20;
  double time_scale = 1.0 / 6.0;
  try {
    if (argc > 1) episodes = util::require_u64(argv[1], "episodes");
    if (argc > 2) time_scale = util::require_double(argv[2], "time_scale");
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "train_grid: %s\n", e.what());
    return 2;
  }

  scenario::GridScenario grid(scenario::GridConfig{});  // 6x6, paper layout
  scenario::FlowPatternConfig flow_config;
  flow_config.time_scale = time_scale;
  auto flows =
      scenario::make_flow_pattern(grid, scenario::FlowPattern::kPattern1, flow_config);

  env::EnvConfig env_config;
  env_config.episode_seconds = 3600.0 * time_scale;
  env::TscEnv environment(&grid.net(), std::move(flows), env_config, 1);
  std::printf("training PairUpLight on the 6x6 grid / pattern F1: %zu agents, "
              "%zu episodes\n",
              environment.num_agents(), episodes);

  core::PairUpLightTrainer trainer(&environment, core::PairUpConfig{});
  double best_wait = 1e18;
  for (std::size_t e = 0; e < episodes; ++e) {
    const auto stats = trainer.train_episode();
    best_wait = std::min(best_wait, stats.avg_wait);
    std::printf("episode %3zu | avg wait %7.2f s | travel time %8.1f s | "
                "reward %8.3f\n",
                e, stats.avg_wait, stats.travel_time, stats.mean_reward);
  }
  std::printf("best training avg wait: %.2f s\n\n", best_wait);

  // Checkpoint the shared actor and critic.
  const auto dir = std::filesystem::temp_directory_path();
  const std::string actor_path = (dir / "pairuplight_actor.bin").string();
  const std::string critic_path = (dir / "pairuplight_critic.bin").string();
  nn::save_weights(trainer.actor(), actor_path);
  nn::save_weights(trainer.critic(), critic_path);
  std::printf("checkpoints written: %s, %s\n\n", actor_path.c_str(),
              critic_path.c_str());

  // Cross-pattern evaluation (trained on F1 only).
  auto controller = trainer.make_controller();
  std::printf("%-12s %14s %14s %10s\n", "pattern", "travel_time_s", "avg_wait_s",
              "finished");
  for (auto pattern :
       {scenario::FlowPattern::kPattern1, scenario::FlowPattern::kPattern2,
        scenario::FlowPattern::kPattern3, scenario::FlowPattern::kPattern4,
        scenario::FlowPattern::kPattern5}) {
    environment.set_flows(scenario::make_flow_pattern(grid, pattern, flow_config),
                          4242);
    const auto stats = env::run_episode(environment, *controller, 4242);
    std::printf("%-12s %14.1f %14.2f %7zu/%zu\n",
                scenario::flow_pattern_name(pattern), stats.travel_time,
                stats.avg_wait, stats.vehicles_finished, stats.vehicles_spawned);
  }
  return 0;
}
