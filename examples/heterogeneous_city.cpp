// Heterogeneous city scenario (the paper's Monaco study, section VI-D):
// 30 signalized intersections with differing lane counts and phase sets.
// Parameter sharing is impossible, so PairUpLight trains one actor/critic
// pair per intersection and is compared against fixed-time control.
//
// Usage: heterogeneous_city [episodes]
#include <cstdio>
#include <stdexcept>

#include "src/baselines/fixed_time.hpp"
#include "src/core/trainer.hpp"
#include "src/env/controller.hpp"
#include "src/scenarios/monaco.hpp"
#include "src/util/parse.hpp"

int main(int argc, char** argv) {
  using namespace tsc;
  std::size_t episodes = 8;
  try {
    if (argc > 1) episodes = util::require_u64(argv[1], "episodes");
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "heterogeneous_city: %s\n", e.what());
    return 2;
  }

  scenario::MonacoScenario monaco;
  std::printf("Monaco-like network: %zu nodes, %zu links, %zu movements, "
              "%zu signalized\n",
              monaco.net().num_nodes(), monaco.net().num_links(),
              monaco.net().num_movements(),
              monaco.net().signalized_nodes().size());

  // Show the heterogeneity the scenario was built for.
  std::size_t min_phases = 99, max_phases = 0;
  for (auto node : monaco.net().signalized_nodes()) {
    min_phases = std::min(min_phases, monaco.net().node(node).phases.size());
    max_phases = std::max(max_phases, monaco.net().node(node).phases.size());
  }
  std::printf("phase-set sizes range %zu..%zu; lanes 1..2 per street\n\n",
              min_phases, max_phases);

  const double time_scale = 0.1;
  env::EnvConfig env_config;
  env_config.episode_seconds = 2400.0 * time_scale;
  env::TscEnv environment(&monaco.net(),
                          monaco.make_flows(975.0, time_scale, 6, 13), env_config,
                          1);

  baselines::FixedTimeController fixed_time;
  const auto fixed_stats = env::run_episode(environment, fixed_time, 7);
  std::printf("[fixed-time ] avg wait %6.2f s | travel time %8.1f s\n",
              fixed_stats.avg_wait, fixed_stats.travel_time);

  core::PairUpConfig config;
  config.parameter_sharing = false;  // heterogeneous intersections
  core::PairUpLightTrainer trainer(&environment, config);
  std::printf("[PairUpLight] %zu per-agent models, %zu weights each\n",
              trainer.num_models(), trainer.actor(0).num_weights());
  for (std::size_t e = 0; e < episodes; ++e) {
    const auto stats = trainer.train_episode();
    std::printf("[train ep %2zu] avg wait %6.2f s | travel time %8.1f s\n", e,
                stats.avg_wait, stats.travel_time);
  }
  auto controller = trainer.make_controller();
  const auto stats = env::run_episode(environment, *controller, 7);
  std::printf("[PairUpLight] avg wait %6.2f s | travel time %8.1f s "
              "(fixed-time: %.1f s)\n",
              stats.avg_wait, stats.travel_time, fixed_stats.travel_time);
  return 0;
}
