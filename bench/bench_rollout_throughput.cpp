// Rollout-collection throughput: environment steps per second on the
// paper's 6x6 grid for kernel tier x num_envs in {1, 2, 4, 8}. Collection
// runs the rollout engine (core/rollout_engine.hpp): num_envs replicas cut
// into min(num_envs, hardware threads) contiguous slices, each slice's
// replicas stepped in lockstep with one GEMM per layer across its rows.
//
// Measures collect_rollouts() only (the PPO update is not timed), reporting
// steps/sec, wall time per episode, and speedup over the num_envs = 1
// reference row. Every JSON row records the hardware thread count and the
// slice count, so a reader can tell batching wins from thread-count
// effects. Results land on stdout and in BENCH_rollout.json.
//
// Knobs: PAIRUP_EPISODES (collection rounds per worker count, default 3),
// PAIRUP_EPISODE_SECONDS (default 600), PAIRUP_TIME_SCALE, PAIRUP_SEED.
// `--smoke` shrinks the run (1 round, 60 s episodes, num_envs <= 2) for CI
// wiring checks.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "src/core/trainer.hpp"
#include "src/util/log.hpp"

namespace {

using namespace tsc;

struct Row {
  std::size_t num_envs = 0;
  std::size_t slices = 0;  ///< concurrent collection slices
  tsc::nn::KernelTier kernel_tier = tsc::nn::KernelTier::kReference;
  std::size_t env_steps = 0;
  double wall_seconds = 0.0;
  double steps_per_sec = 0.0;
  double wall_per_episode = 0.0;
  double speedup = 1.0;  ///< vs the num_envs = 1 reference row
};

std::string row_name(const Row& r) {
  return std::string(nn::kernel_tier_name(r.kernel_tier)) +
         " num_envs=" + std::to_string(r.num_envs);
}

void write_json(const std::string& path, const bench::HarnessConfig& config,
                const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    log_warn("bench_rollout_throughput: cannot write ", path);
    return;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"rollout_throughput\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw);
  std::fprintf(f, "  \"grid\": [%zu, %zu],\n", config.grid_rows, config.grid_cols);
  std::fprintf(f, "  \"episode_seconds\": %g,\n", config.episode_seconds);
  std::fprintf(f, "  \"rounds\": %zu,\n", config.episodes);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"num_envs\": %zu, \"slices\": %zu, "
                 "\"kernel_tier\": \"%s\", "
                 "\"hardware_threads\": %u, "
                 "\"env_steps\": %zu, "
                 "\"wall_seconds\": %.6f, \"env_steps_per_sec\": %.2f, "
                 "\"wall_seconds_per_episode\": %.6f, "
                 "\"speedup_vs_serial\": %.3f}%s\n",
                 r.num_envs, r.slices, nn::kernel_tier_name(r.kernel_tier),
                 hw, r.env_steps,
                 r.wall_seconds, r.steps_per_sec, r.wall_per_episode, r.speedup,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::HarnessConfig defaults;
  defaults.episodes = 3;  // collection rounds per worker count
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  if (smoke) {
    defaults.episodes = 1;
    defaults.episode_seconds = 60.0;
  }
  const bench::HarnessConfig config = bench::load_config(defaults);
  auto grid = bench::make_grid(config);
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf(
      "Rollout collection throughput, %zux%zu grid, %g s episodes, "
      "%zu rounds per configuration%s\n"
      "hardware_concurrency: %u\n\n",
      config.grid_rows, config.grid_cols, config.episode_seconds,
      config.episodes, smoke ? " (smoke)" : "", hw);
  bench::print_header("tier / replicas", {"slices", "steps/sec", "s/episode",
                                          "speedup"});

  std::vector<std::size_t> env_counts = {1, 2, 4, 8};
  if (smoke) env_counts = {1, 2};

  std::vector<Row> rows;
  for (nn::KernelTier tier :
       {nn::KernelTier::kReference, nn::KernelTier::kFast}) {
    for (std::size_t num_envs : env_counts) {
      // Fresh env + trainer per configuration: identical initial weights, so
      // rounds differ only in the replica count and the kernel tier.
      // Speedups stay relative to the num_envs = 1 REFERENCE row
      // (rows.front()), so fast-tier rows read directly as end-to-end
      // kernel-tier lift.
      auto environment =
          bench::make_env(*grid, scenario::FlowPattern::kPattern1, config);
      core::PairUpConfig pairup_config = bench::make_pairup_config(config);
      pairup_config.num_envs = num_envs;
      pairup_config.kernel_tier = tier;
      core::PairUpLightTrainer trainer(environment.get(), pairup_config);

      Row row;
      row.num_envs = num_envs;
      row.slices = trainer.rollout_slices();
      row.kernel_tier = tier;
      std::size_t episodes = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < config.episodes; ++r) {
        const auto collected = trainer.collect_rollouts(config.seed + 1000 + r);
        row.env_steps += collected.env_steps;
        episodes += num_envs;
      }
      row.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      row.steps_per_sec = static_cast<double>(row.env_steps) / row.wall_seconds;
      row.wall_per_episode = row.wall_seconds / static_cast<double>(episodes);
      row.speedup =
          rows.empty() ? 1.0 : row.steps_per_sec / rows.front().steps_per_sec;
      rows.push_back(row);

      bench::print_row(row_name(row),
                       {static_cast<double>(row.slices), row.steps_per_sec,
                        row.wall_per_episode, row.speedup});
    }
  }

  write_json("BENCH_rollout.json", config, rows);
  return 0;
}
