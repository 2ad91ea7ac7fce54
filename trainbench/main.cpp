// End-to-end PairUpLight training benchmark: one workload per process.
//
//   train_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--tmpdir <dir>] [--commit <id>] [--source-digest <hex>]
//               [--smoke]
//
// Every workload is a closed loop: the next iteration starts when the
// previous one ends. Iteration 0 warms up; the loop then runs until
// --seconds have passed and the workload's fixed window of iterations is
// done. A training iteration is train_episode + eval_episode +
// save_checkpoint; an evaluation iteration is one five-pattern sweep of
// eval_episode calls.
//
// --trace 0 reports the end-to-end metrics. --trace 1 records spans around
// every stage call (a traced training iteration calls train_episode's two
// halves, collect_rollouts and update, apart), replays each traced update
// through the layers' public functions (probes.hpp), and reports the
// per-layer ledger. Untraced iterations alternate with the traced ones, so
// the tracing overhead is measured in the same process.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit codes: 0 reported (failed operations included), 2 bad arguments or
// set-up failure, 3 the traced stage spans cover < 95% of the iteration.
#include <cpuid.h>
#include <stdlib.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "knobs.hpp"
#include "ledger.hpp"
#include "probes.hpp"
#include "src/core/trainer.hpp"
#include "src/scenarios/flow_patterns.hpp"
#include "src/scenarios/grid.hpp"
#include "src/scenarios/monaco.hpp"
#include "src/util/parse.hpp"

namespace {

using namespace tsc;
using core::PairUpLightTrainer;
using trainbench::median;
using trainbench::now_seconds;
using trainbench::ScopedSpan;
using trainbench::Trace;

constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 20261016;
// What --seed generates. On the training workloads it is the trainer's
// PairUpConfig::seed, as a user sets it: train_episode derives each round's
// traffic from it, and it draws the initial weights. On grid6_eval it seeds
// the traffic of the sweep's episodes, and the evaluated policy is the
// initial policy of model seed kEvalModelSeed. The rest is fixed so that a
// seed changes the inputs, not the workload's shape: the Monaco OD pairs,
// and the seeds of the training workloads' evaluation episodes, which act
// like a held test set so that eval_wait_s moves with the trained policy
// rather than with the traffic draw.
constexpr std::uint64_t kEvalModelSeed = 1;
constexpr std::uint64_t kMonacoOdSeed = 14;
constexpr std::uint64_t kEvalSeedBase = 0x5EED0000ULL;
constexpr double kMinClosure = 0.95;
constexpr double kReplayLow = 0.9;
constexpr double kReplayHigh = 1.1;
constexpr std::size_t kMaxIterations = 100000;
// setup_s: builds are timed in two windows, one before the first iteration
// and one after the last, each of at least kSetupWindowBuilds builds and
// kSetupWindowSeconds (at most kMaxSetupWindowBuilds builds).
constexpr std::size_t kSetupWindowBuilds = 3;
constexpr double kSetupWindowSeconds = 1.5;
constexpr std::size_t kMaxSetupWindowBuilds = 250;
// Collection seed of the rollout that supplies the loss check's rows.
constexpr std::uint64_t kCheckRowsSeed = 0xC4EC0000ULL;

enum class Kind { kGrid6Train, kGrid6Train4t, kMonacoTrain, kGrid6Eval };

struct Workload {
  const char* name;
  Kind kind;
  /// Iterations (warm-up included) that define eval_wait_s and the weight
  /// fingerprint; every run completes at least this many.
  std::size_t fixed_iterations;
  /// Threads the workload asks for (num_envs and num_update_shards).
  std::size_t threads;
};

constexpr Workload kWorkloads[] = {
    {"grid6_train", Kind::kGrid6Train, 4, 1},
    {"grid6_train_4t", Kind::kGrid6Train4t, 3, 4},
    {"monaco_train", Kind::kMonacoTrain, 4, 1},
    {"grid6_eval", Kind::kGrid6Eval, 2, 1},
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Short episodes, one set-up: a seconds-long pass for the self-tests.
  bool smoke = false;
  std::string tmpdir = ".";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  // Self-test injections (test_bench.py): a failing check at one
  // iteration, an unspanned sleep inside every iteration, and a stretched
  // update replay.
  std::optional<std::uint64_t> inject_fail_iteration;
  double inject_gap_ms = 0.0;
  double inject_replay_scale = 1.0;
};

void usage_error(const std::string& message) {
  std::fprintf(stderr, "train_bench: %s\n", message.c_str());
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opts.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage_error("missing value after " + arg);
      return std::nullopt;
    }
    const std::string value = argv[++i];
    auto non_negative = [&]() -> std::optional<double> {
      const auto v = util::parse_double(value);
      if (v && std::isfinite(*v) && *v >= 0.0) return v;
      usage_error("bad value for " + arg + ": " + value);
      return std::nullopt;
    };
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads)
        if (value == w.name) opts.workload = &w;
      if (opts.workload == nullptr) {
        usage_error("unknown workload: " + value);
        return std::nullopt;
      }
    } else if (arg == "--seed" || arg == "--inject-fail-iteration") {
      const auto v = util::parse_u64(value);
      if (!v) {
        usage_error("bad value for " + arg + ": " + value);
        return std::nullopt;
      }
      (arg == "--seed" ? opts.seed : opts.inject_fail_iteration.emplace()) = *v;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        usage_error("--trace takes 0 or 1");
        return std::nullopt;
      }
      opts.trace = value == "1";
    } else if (arg == "--seconds" || arg == "--inject-gap-ms" ||
               arg == "--inject-replay-scale") {
      const auto v = non_negative();
      if (!v) return std::nullopt;
      (arg == "--seconds" ? opts.seconds
                          : arg == "--inject-gap-ms" ? opts.inject_gap_ms
                                                     : opts.inject_replay_scale) = *v;
    } else if (arg == "--tmpdir") {
      opts.tmpdir = value;
    } else if (arg == "--commit") {
      opts.commit = value;
    } else if (arg == "--source-digest") {
      opts.source_digest = value;
    } else {
      usage_error("unknown argument: " + arg);
      return std::nullopt;
    }
  }
  if (opts.workload == nullptr) {
    usage_error("--workload is required");
    return std::nullopt;
  }
  return opts;
}

// ---------------------------------------------------------------------------
// Workload set-up: the generated scenario and flows, the environment, and
// the trainer with every performance knob at its library default.

struct Setup {
  Kind kind = Kind::kGrid6Train;
  std::uint64_t seed = 0;
  std::unique_ptr<scenario::GridScenario> grid;
  std::unique_ptr<scenario::MonacoScenario> monaco;
  /// flows[0] is trained and evaluated on; grid6_eval holds all five
  /// patterns.
  std::vector<std::vector<sim::FlowSpec>> flows;
  env::EnvConfig env_config;
  core::PairUpConfig config;
  std::unique_ptr<env::TscEnv> env;
  std::unique_ptr<PairUpLightTrainer> trainer;

  const sim::RoadNetwork& net() const { return grid ? grid->net() : monaco->net(); }
  bool training() const { return kind != Kind::kGrid6Eval; }
};

std::unique_ptr<Setup> build_setup(Kind kind, std::uint64_t seed, bool smoke) {
  auto s = std::make_unique<Setup>();
  s->kind = kind;
  s->seed = seed;
  s->config.seed = kind == Kind::kGrid6Eval ? kEvalModelSeed : seed;
  s->config.ppo.minibatch = 256;  // the paper configuration: 4 epochs x 256
  const double train_seconds = smoke ? 300.0 : 600.0;
  if (kind == Kind::kMonacoTrain) {
    s->monaco = std::make_unique<scenario::MonacoScenario>();
    s->flows.push_back(s->monaco->make_flows(975.0, 1.0 / 6.0, 6, kMonacoOdSeed));
    s->env_config.episode_seconds = train_seconds;
    s->config.parameter_sharing = false;  // heterogeneous intersections
  } else {
    scenario::GridConfig grid;
    grid.rows = 6;
    grid.cols = 6;
    s->grid = std::make_unique<scenario::GridScenario>(grid);
    if (kind == Kind::kGrid6Eval) {
      // The paper's Table 2 protocol: every pattern, 3600-s episodes.
      for (int p = 1; p <= 5; ++p)
        s->flows.push_back(scenario::make_flow_pattern(
            *s->grid, static_cast<scenario::FlowPattern>(p), {}));
      s->env_config.episode_seconds = smoke ? 600.0 : 3600.0;
    } else {
      scenario::FlowPatternConfig flow_config;
      flow_config.time_scale = 1.0 / 6.0;
      s->flows.push_back(scenario::make_flow_pattern(
          *s->grid, scenario::FlowPattern::kPattern1, flow_config));
      s->env_config.episode_seconds = train_seconds;
    }
    if (kind == Kind::kGrid6Train4t) trainbench::set_thread_counts(s->config, 4, 4);
  }
  s->env = std::make_unique<env::TscEnv>(&s->net(), s->flows[0], s->env_config, seed);
  s->trainer = std::make_unique<PairUpLightTrainer>(s->env.get(), s->config);
  return s;
}

/// Seed of grid6_eval's evaluation episode on pattern `pattern` (0-based).
std::uint64_t sweep_seed_of(const Setup& s, std::size_t pattern) {
  return s.seed * 7919 + pattern;
}

/// Seed of the evaluation episode the traced run's per-step probes replay:
/// the traffic of the workload's own evaluation (grid6_eval: pattern 1).
std::uint64_t probe_eval_seed(const Setup& s) {
  return s.training() ? kEvalSeedBase : sweep_seed_of(s, 0);
}

/// A trainer on a fresh environment, built exactly like `s`'s (the target
/// of the checkpoint round trip).
struct Fresh {
  std::unique_ptr<env::TscEnv> env;
  std::unique_ptr<PairUpLightTrainer> trainer;
};

Fresh build_fresh(const Setup& s) {
  Fresh f;
  f.env = std::make_unique<env::TscEnv>(&s.net(), s.flows[0], s.env_config, s.seed);
  f.trainer = std::make_unique<PairUpLightTrainer>(f.env.get(), s.config);
  return f;
}

/// Rows model 0 trains on in `buffer`.
std::vector<const rl::Sample*> model0_samples(const PairUpLightTrainer& trainer,
                                              rl::RolloutBuffer& buffer) {
  if (trainer.num_models() == 1) return buffer.flatten(false);
  std::vector<const rl::Sample*> out;
  for (const rl::Sample& s : buffer.agent_samples(0)) out.push_back(&s);
  return out;
}

/// The rows every training iteration's loss check reads: the first
/// minibatch of model 0's samples from one rollout of a trainer built like
/// the workload's. That trainer is freed before the run's own is built, so
/// the run's trainer, its streams and the peak resident set are untouched.
std::vector<rl::Sample> loss_check_rows(Kind kind, std::uint64_t seed, bool smoke) {
  const std::unique_ptr<Setup> s = build_setup(kind, seed, smoke);
  PairUpLightTrainer::CollectResult rollout = s->trainer->collect_rollouts(kCheckRowsSeed);
  std::vector<rl::Sample> rows;
  for (const rl::Sample* sample : model0_samples(*s->trainer, rollout.buffer)) {
    if (rows.size() == s->config.ppo.minibatch) break;
    rows.push_back(*sample);
  }
  return rows;
}

/// Scratch directory for checkpoints, removed with everything in it.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::string pattern = parent + "/trainbench-XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr)
      throw std::runtime_error("cannot create a temporary directory in " + parent);
    path_ = pattern;
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// Iterations and their checks.

struct Record {
  std::size_t index = 0;
  bool traced = false;
  bool ok = true;
  double wall = 0.0;
  std::size_t steps = 0;  ///< decision steps: training collection + evaluation
  double eval_wait = 0.0;
  // Traced iterations only: stage spans, in seconds.
  double collect = 0.0, update = 0.0, eval = 0.0, checkpoint = 0.0;
  double closure = 0.0;
  double collect_cpu = 0.0, update_cpu = 0.0;
  long update_vcsw = 0;
  std::optional<trainbench::ReplayResult> replay;
};

bool stats_finite(const env::EpisodeStats& s) {
  return std::isfinite(s.avg_wait) && std::isfinite(s.travel_time) &&
         std::isfinite(s.delay) && std::isfinite(s.mean_reward);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool same_stats(const env::EpisodeStats& a, const env::EpisodeStats& b) {
  return same_bits(a.avg_wait, b.avg_wait) && same_bits(a.travel_time, b.travel_time) &&
         same_bits(a.delay, b.delay) && same_bits(a.mean_reward, b.mean_reward) &&
         a.vehicles_finished == b.vehicles_finished &&
         a.vehicles_spawned == b.vehicles_spawned;
}

class Loop {
 public:
  /// `check_rows` feed the training iterations' loss check
  /// (loss_check_rows; empty on grid6_eval).
  Loop(Setup& setup, const Options& opts, Trace& trace, std::string ckpt_prefix,
       std::vector<rl::Sample> check_rows)
      : s_(setup),
        opts_(opts),
        trace_(trace),
        prefix_(std::move(ckpt_prefix)),
        check_rows_(std::move(check_rows)) {
    for (const rl::Sample& row : check_rows_) check_row_ptrs_.push_back(&row);
  }

  /// Iteration i with its checks; a traced training iteration is followed
  /// by the replay of its update. A failed check or a thrown exception
  /// marks the record failed and is reported on stderr.
  Record run(std::size_t i, bool traced) {
    Record rec;
    rec.index = i;
    rec.traced = traced;
    std::string why;
    try {
      Trace* trace = traced ? &trace_ : nullptr;
      if (s_.training()) {
        train_iteration(rec, trace);
        why = check_training();
      } else {
        eval_iteration(rec, trace);
        why = check_sweep();
      }
      if (opts_.inject_fail_iteration && *opts_.inject_fail_iteration == i)
        why = "injected failing check";
      if (why.empty() && traced && s_.training()) {
        if (!replay_) replay_ = std::make_unique<trainbench::UpdateReplay>(*s_.trainer);
        rec.replay = replay_->run(collected_.buffer, opts_.inject_replay_scale);
      }
    } catch (const std::exception& e) {
      why = std::string("exception: ") + e.what();
    }
    if (!why.empty()) {
      rec.ok = false;
      std::fprintf(stderr, "trainbench: iteration %zu failed: %s\n", i, why.c_str());
    }
    return rec;
  }

  /// The rollout of the last traced training iteration.
  rl::RolloutBuffer& buffer() { return collected_.buffer; }

 private:
  std::uint64_t train_seed(std::size_t i) const { return s_.seed * 7919 + i; }
  static std::uint64_t eval_seed(std::size_t i) { return kEvalSeedBase + i; }
  std::uint64_t sweep_seed(std::size_t k) const { return sweep_seed_of(s_, k); }

  void inject_gap() const {
    using ms = std::chrono::duration<double, std::milli>;
    if (opts_.inject_gap_ms > 0.0) std::this_thread::sleep_for(ms(opts_.inject_gap_ms));
  }

  void train_iteration(Record& rec, Trace* trace) {
    PairUpLightTrainer& trainer = *s_.trainer;
    std::size_t iteration_id = 0, collect_id = 0, update_id = 0, eval_id = 0, ckpt_id = 0;
    std::size_t train_episodes = 0, eval_steps = 0;
    const double start = now_seconds();
    {
      ScopedSpan iteration(trace, "iteration");
      iteration_id = iteration.id();
      if (trace == nullptr) {
        // What users call: the round's seeds come from the trainer's
        // episode counter, which train_episode advances.
        train_stats_ = trainer.train_episode();
      } else {
        // train_episode's two halves, spanned apart. They leave the episode
        // counter where it is, so a traced run trains differently from an
        // untraced one; only the untraced run defines eval_wait_s and the
        // fingerprint.
        {
          ScopedSpan span(trace, "core.collect", true);
          collect_id = span.id();
          collected_ = trainer.collect_rollouts(train_seed(rec.index));
        }
        {
          ScopedSpan span(trace, "core.update", true);
          update_id = span.id();
          trainer.update(collected_.buffer);
        }
        train_stats_ = collected_.stats;
      }
      train_episodes = trainer.last_episode_seeds().size();
      {
        ScopedSpan span(trace, "core.eval");
        eval_id = span.id();
        eval_stats_ = trainer.eval_episode(eval_seed(rec.index));
        eval_steps = s_.env->steps_taken();
      }
      {
        ScopedSpan span(trace, "core.checkpoint");
        ckpt_id = span.id();
        trainer.save_checkpoint(prefix_);
      }
      inject_gap();
    }
    rec.wall = now_seconds() - start;
    // Every episode lasts episode_seconds / action_duration decisions, so a
    // round's training steps are its episode count times the evaluation
    // episode's; a traced iteration, which sees the count, checks this.
    rec.steps = (train_episodes + 1) * eval_steps;
    rec.eval_wait = eval_stats_.avg_wait;
    if (trace != nullptr && collected_.env_steps != train_episodes * eval_steps)
      throw std::runtime_error("training episodes differ in length from the evaluation episode");
    if (trace != nullptr) {
      rec.collect = trace->span(collect_id).duration();
      rec.update = trace->span(update_id).duration();
      rec.eval = trace->span(eval_id).duration();
      rec.checkpoint = trace->span(ckpt_id).duration();
      rec.collect_cpu = trace->span(collect_id).cpu_seconds;
      rec.update_cpu = trace->span(update_id).cpu_seconds;
      rec.update_vcsw = trace->span(update_id).voluntary_switches;
      rec.closure = trace->closure(iteration_id);
    }
  }

  void eval_iteration(Record& rec, Trace* trace) {
    PairUpLightTrainer& trainer = *s_.trainer;
    std::size_t iteration_id = 0;
    sweep_.clear();
    const double start = now_seconds();
    {
      ScopedSpan iteration(trace, "iteration");
      iteration_id = iteration.id();
      for (std::size_t k = 0; k < s_.flows.size(); ++k) {
        ScopedSpan span(trace, "core.eval");
        s_.env->set_flows(s_.flows[k], sweep_seed(k));
        sweep_.push_back(trainer.eval_episode(sweep_seed(k)));
        rec.steps += s_.env->steps_taken();
      }
      inject_gap();
    }
    rec.wall = now_seconds() - start;
    for (const env::EpisodeStats& st : sweep_) rec.eval_wait += st.avg_wait;
    rec.eval_wait /= static_cast<double>(sweep_.size());
    if (trace != nullptr) {
      rec.eval = trace->child_seconds(iteration_id, "core.eval");
      rec.closure = trace->closure(iteration_id);
    }
  }

  std::string check_training() {
    if (!stats_finite(train_stats_)) return "training episode stats are not finite";
    if (train_stats_.vehicles_finished == 0) return "no vehicle finished a training episode";
    if (!stats_finite(eval_stats_)) return "evaluation stats are not finite";
    if (eval_stats_.vehicles_finished == 0)
      return "no vehicle finished the evaluation episode";
    if (!trainbench::parameters_finite(*s_.trainer)) return "a parameter is not finite";
    const double loss = trainbench::minibatch_loss(*s_.trainer, check_row_ptrs_, check_ws_);
    if (!std::isfinite(loss)) return "the PPO loss is not finite";
    return "";
  }

  std::string check_sweep() {
    for (const env::EpisodeStats& st : sweep_) {
      if (!stats_finite(st)) return "evaluation stats are not finite";
      if (st.vehicles_finished == 0) return "no vehicle finished an evaluation episode";
    }
    if (!trainbench::parameters_finite(*s_.trainer)) return "a parameter is not finite";
    if (first_sweep_.empty()) {
      first_sweep_ = sweep_;
    } else {
      for (std::size_t k = 0; k < sweep_.size(); ++k)
        if (!same_stats(sweep_[k], first_sweep_[k]))
          return "the sweep does not reproduce the first sweep bit for bit";
    }
    return "";
  }

  Setup& s_;
  const Options& opts_;
  Trace& trace_;
  std::string prefix_;
  std::vector<rl::Sample> check_rows_;
  std::vector<const rl::Sample*> check_row_ptrs_;
  PairUpLightTrainer::CollectResult collected_;
  env::EpisodeStats train_stats_, eval_stats_;
  std::vector<env::EpisodeStats> sweep_, first_sweep_;
  nn::BackwardWorkspace check_ws_;
  std::unique_ptr<trainbench::UpdateReplay> replay_;
};

/// Per-step split of one evaluation episode driven through the public
/// Controller interface: a public observation read (which forces the
/// environment's lazy observation sync), act(), then TscEnv::step; after
/// each step, the decision's two inference forwards on recorded rows.
struct StepSplit {
  double observe = 0.0, decide = 0.0, step = 0.0;  ///< medians, seconds
  trainbench::InferenceResult infer;               ///< medians, seconds
};

StepSplit probe_controller(Setup& s, Trace& trace, trainbench::InferenceProbe& infer) {
  env::TscEnv& env = *s.env;
  const std::uint64_t seed = probe_eval_seed(s);
  auto controller = s.trainer->make_controller();
  env.reset(seed);
  controller->begin_episode(env);
  std::vector<double> actor_times, critic_times;
  ScopedSpan episode(&trace, "probe.controller_episode");
  while (!env.done()) {
    {
      ScopedSpan span(&trace, "env.observe");
      (void)env.local_obs(0);
    }
    std::vector<std::size_t> actions;
    {
      ScopedSpan span(&trace, "core.decide");
      actions = controller->act(env);
    }
    {
      ScopedSpan span(&trace, "env.step");
      env.step(actions);
    }
    const trainbench::InferenceResult r = infer.time_step(env.steps_taken() - 1);
    actor_times.push_back(r.actor);
    critic_times.push_back(r.critic);
  }
  StepSplit split;
  split.infer = {median(actor_times), median(critic_times)};
  split.observe = median(trace.child_durations(episode.id(), "env.observe"));
  split.decide = median(trace.child_durations(episode.id(), "core.decide"));
  split.step = median(trace.child_durations(episode.id(), "env.step"));
  return split;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
  /// False for a figure that is printed but not declared in BENCHMARK.json
  /// (one that reads 0 on some workload).
  bool in_result = true;
};

std::string format(const char* fmt, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

/// Median of `field` over `records`; 0 when there are none.
template <typename Fn>
double median_of(const std::vector<const Record*>& records, Fn&& field) {
  std::vector<double> values;
  for (const Record* r : records) values.push_back(field(*r));
  return values.empty() ? 0.0 : median(values);
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    std::string name(reinterpret_cast<const char*>(regs), sizeof(regs));
    name = name.c_str();
    const auto first = name.find_first_not_of(' ');
    const auto last = name.find_last_not_of(' ');
    if (first != std::string::npos) return name.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

/// Per-layer ledger of the traced run (see README.md for the map from each
/// metric to the end-to-end metric it moves).
std::vector<Metric> per_layer_metrics(const std::vector<Record>& records,
                                      const std::vector<const Record*>& train_traced,
                                      const std::vector<double>& restore_times,
                                      const StepSplit& split,
                                      const trainbench::LayerResult& layers,
                                      const trainbench::NetShape& shape,
                                      bool from_probe) {
  std::vector<const Record*> traced, untraced;
  for (const Record& r : records) {
    if (r.index == 0 || !r.ok) continue;
    (r.traced ? traced : untraced).push_back(&r);
  }
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  std::vector<Metric> m;
  auto add = [&m](const char* name, double value, const char* unit, const char* note) {
    m.push_back({name, value, unit, note});
  };
  // Medians over the traced training iterations (on grid6_eval, the probe).
  auto train = [&](auto field) { return median_of(train_traced, field); };
  const char* stage_note =
      from_probe ? "per iteration, from a probe iteration at the grid6_train shape"
                 : "per traced iteration, median";

  add("core.collect_s", train([](const Record& r) { return r.collect; }), "s", stage_note);
  add("core.update_s", train([](const Record& r) { return r.update; }), "s", stage_note);
  add("core.eval_s",
      median_of(from_probe ? traced : train_traced, [](const Record& r) { return r.eval; }),
      "s", from_probe ? "per five-pattern sweep, median" : stage_note);
  add("core.checkpoint_s", train([](const Record& r) { return r.checkpoint; }), "s",
      stage_note);
  add("core.restore_s", restore_times.empty() ? 0.0 : median(restore_times), "s",
      "load_checkpoint into a fresh trainer, median");
  add("core.collect_cpu_per_wall",
      train([&](const Record& r) { return ratio(r.collect_cpu, r.collect); }), "ratio",
      "process CPU seconds per wall second across collect_rollouts");
  add("core.update_cpu_per_wall",
      train([&](const Record& r) { return ratio(r.update_cpu, r.update); }), "ratio",
      "process CPU seconds per wall second across update");
  m.push_back({"core.update_vcsw",
               train([](const Record& r) { return static_cast<double>(r.update_vcsw); }),
               "count", "voluntary context switches across update (printed only)", false});

  add("env.observe_us", split.observe * 1e6, "us", "per decision step, median");
  add("core.decide_us", split.decide * 1e6, "us", "Controller::act per step, median");
  add("env.step_us", split.step * 1e6, "us", "TscEnv::step per step, median");
  add("nn.actor_infer_us", split.infer.actor * 1e6, "us",
      "forward_inference per decision, median");
  add("nn.critic_infer_us", split.infer.critic * 1e6, "us",
      "forward_inference per decision, median");
  add("core.decide_overhead_us",
      (split.decide - split.infer.actor - split.infer.critic) * 1e6, "us",
      "decide minus the two inference forwards");

  using trainbench::ReplayResult;
  auto replay_ms = [&](const char* name, double ReplayResult::*field) {
    add(name, 1e3 * train([field](const Record& r) { return (*r.replay).*field; }), "ms",
        "per update, replayed");
  };
  replay_ms("nn.actor_fwd_ms", &ReplayResult::actor_fwd);
  replay_ms("nn.critic_fwd_ms", &ReplayResult::critic_fwd);
  replay_ms("rl.ppo_loss_ms", &ReplayResult::ppo_loss);
  replay_ms("nn.actor_bwd_ms", &ReplayResult::actor_bwd);
  replay_ms("nn.critic_bwd_ms", &ReplayResult::critic_bwd);
  replay_ms("nn.clip_ms", &ReplayResult::clip);
  replay_ms("nn.adam_ms", &ReplayResult::adam);
  replay_ms("nn.pack_ms", &ReplayResult::pack);
  const ReplayResult& first = *train_traced.front()->replay;
  add("nn.minibatches", static_cast<double>(first.minibatches), "count",
      "minibatches per update");
  add("nn.lstm_fwd_ms", layers.lstm_fwd * 1e3, "ms", "standalone LstmCell, per update");
  add("nn.lstm_bwd_ms", layers.lstm_bwd * 1e3, "ms", "standalone LstmCell, per update");
  add("nn.linear_fwd_ms", layers.linear_fwd * 1e3, "ms", "standalone Linear, per update");
  add("nn.linear_bwd_ms", layers.linear_bwd * 1e3, "ms", "standalone Linear, per update");
  const double gflop = 2.0 * trainbench::update_gemm_mnk_per_row(shape) *
                       static_cast<double>(first.rows) / 1e9;
  add("nn.update_gflop", gflop, "GFLOP", "computed: 2*m*n*k over the update's GEMMs");
  add("nn.update_gflop_per_s",
      ratio(gflop, train([](const Record& r) { return r.replay->total; })), "GFLOP/s",
      "computed GFLOP / replay time");

  add("core.closure", median_of(traced, [](const Record& r) { return r.closure; }), "ratio",
      "stage spans / traced iteration wall, median");
  add("nn.update_closure",
      train([&](const Record& r) { return ratio(r.replay->total, r.update); }), "ratio",
      "replay / core.update_s, median");
  auto wall = [](const Record& r) { return r.wall; };
  add("core.trace_overhead", ratio(median_of(traced, wall), median_of(untraced, wall)),
      "ratio", "traced / untraced iteration wall, medians (1 = no overhead)");
  return m;
}

/// One window of timed set-up builds (see kSetupWindowSeconds), appended to
/// `times`; each build is freed before the next. A single-threaded
/// workload's builds rotate across the CPUs; a threaded one's stay unpinned,
/// since its pools' threads would inherit the pin.
void time_setup_window(const Workload& w, const Options& opts,
                       trainbench::CpuRotation& rotation, std::vector<double>& times) {
  double window = 0.0;
  for (std::size_t r = 0; r < kMaxSetupWindowBuilds &&
                          (r < kSetupWindowBuilds || window < kSetupWindowSeconds);
       ++r) {
    if (w.threads == 1) rotation.pin(r);
    const double t0 = now_seconds();
    const std::unique_ptr<Setup> built = build_setup(w.kind, opts.seed, opts.smoke);
    times.push_back(now_seconds() - t0);
    window += times.back();
  }
  rotation.release();
}

int run(const Options& opts) {
  const Workload& w = *opts.workload;

  // setup_s (untraced run): the median of the builds of two windows, one
  // here and one after the last iteration, so that a burst of machine noise
  // during one window cannot carry the median. The traced and smoke runs
  // time only the set-up they use.
  trainbench::CpuRotation rotation;
  std::vector<double> setup_times;
  const bool time_setup = !opts.trace && !opts.smoke;
  if (time_setup) time_setup_window(w, opts, rotation, setup_times);
  std::vector<rl::Sample> check_rows;
  if (w.kind != Kind::kGrid6Eval) check_rows = loss_check_rows(w.kind, opts.seed, opts.smoke);
  const double setup_start = now_seconds();
  const std::unique_ptr<Setup> setup = build_setup(w.kind, opts.seed, opts.smoke);
  if (!time_setup) setup_times.push_back(now_seconds() - setup_start);
  PairUpLightTrainer& trainer = *setup->trainer;
  const TempDir dir(opts.tmpdir);

  Trace trace;
  Loop loop(*setup, opts, trace, dir.path() + "/ckpt", std::move(check_rows));
  std::vector<Record> records;
  std::optional<std::uint64_t> fingerprint;
  // Each iteration (with its checks and replay) runs pinned to the next CPU.
  auto run_one = [&](std::size_t i, bool traced) {
    rotation.pin(i);
    records.push_back(loop.run(i, traced));
    if (i + 1 == w.fixed_iterations)
      fingerprint = trainbench::parameter_fingerprint(trainer);
  };
  const std::size_t min_iterations =
      std::max<std::size_t>(w.fixed_iterations, opts.trace ? 3 : 2);
  run_one(0, false);
  const double timed_start = now_seconds();
  for (std::size_t i = 1; i < kMaxIterations; ++i) {
    if (i >= min_iterations && now_seconds() - timed_start >= opts.seconds) break;
    run_one(i, opts.trace && i % 2 == 1);
  }
  rotation.release();
  const trainbench::Usage usage = trainbench::Usage::now();

  // save_checkpoint -> load_checkpoint into a fresh trainer must reproduce
  // every parameter bit for bit; a failure is charged to the last iteration.
  std::vector<double> restore_times;
  try {
    const std::string prefix = dir.path() + "/roundtrip";
    trainer.save_checkpoint(prefix);
    Fresh fresh = build_fresh(*setup);
    for (std::size_t r = 0; r < (opts.trace ? 3 : 1); ++r) {
      const double t0 = now_seconds();
      fresh.trainer->load_checkpoint(prefix);
      restore_times.push_back(now_seconds() - t0);
    }
    const std::size_t differing =
        trainbench::parameters_differing(trainer, *fresh.trainer);
    if (differing != 0)
      throw std::runtime_error(std::to_string(differing) + " parameter values differ");
  } catch (const std::exception& e) {
    records.back().ok = false;
    std::fprintf(stderr, "trainbench: checkpoint round trip failed: %s\n", e.what());
  }
  if (time_setup) time_setup_window(w, opts, rotation, setup_times);

  std::vector<Metric> metrics;
  if (!opts.trace) {
    std::vector<double> walls;
    double wall_sum = 0.0, steps = 0.0;
    for (const Record& r : records) {
      if (r.index == 0 || !r.ok) continue;
      walls.push_back(r.wall);
      wall_sum += r.wall;
      steps += static_cast<double>(r.steps);
    }
    const trainbench::Summary iter = trainbench::summarize(walls);
    double eval_wait = 0.0;
    for (std::size_t i = 0; i < w.fixed_iterations; ++i)
      eval_wait += records[i].eval_wait;
    eval_wait /= static_cast<double>(w.fixed_iterations);
    metrics.push_back({"iter_s", iter.median, "s",
                       format("median of %.0f timed iterations (min %.4g, max %.4g)",
                              static_cast<double>(iter.samples), iter.min, iter.max)});
    metrics.push_back({"env_steps_per_s", wall_sum > 0 ? steps / wall_sum : 0.0,
                       "steps/s", "decision steps / timed wall"});
    metrics.push_back({"setup_s", median(setup_times), "s",
                       format("median of %.0f set-ups in two windows",
                              static_cast<double>(setup_times.size()))});
    metrics.push_back({"peak_rss_mib", static_cast<double>(usage.peak_rss_kib) / 1024.0,
                       "MiB", "getrusage ru_maxrss"});
    metrics.push_back({"eval_wait_s", eval_wait, "s",
                       format("mean evaluation average wait, first %.0f iterations",
                              static_cast<double>(w.fixed_iterations))});
  } else {
    std::vector<const Record*> train_traced;
    for (const Record& r : records)
      if (r.ok && r.traced && r.replay) train_traced.push_back(&r);
    // The per-step probe replays the traffic of the workload's own
    // evaluation; its inference forwards read rows recorded in that regime:
    // the last training rollout, or for grid6_eval a rollout of its
    // pattern-1 evaluation episode.
    StepSplit split;
    {
      std::optional<PairUpLightTrainer::CollectResult> eval_rows;
      if (!setup->training()) {
        setup->env->set_flows(setup->flows[0], probe_eval_seed(*setup));
        eval_rows = trainer.collect_rollouts(probe_eval_seed(*setup));
      }
      trainbench::InferenceProbe infer(trainer,
                                       eval_rows ? eval_rows->buffer : loop.buffer());
      split = probe_controller(*setup, trace, infer);
    }
    // grid6_eval's iteration has no collection, update or checkpoint: those
    // stages come from one probe iteration at the grid6_train shape.
    std::unique_ptr<Setup> probe;
    std::unique_ptr<Loop> probe_loop;
    std::vector<Record> probe_records;
    Loop* rows_from = &loop;
    PairUpLightTrainer* layer_trainer = &trainer;
    if (!setup->training()) {
      probe = build_setup(Kind::kGrid6Train, opts.seed, opts.smoke);
      probe_loop = std::make_unique<Loop>(*probe, opts, trace, dir.path() + "/probe",
                                          loss_check_rows(Kind::kGrid6Train, opts.seed,
                                                          opts.smoke));
      probe_records.push_back(probe_loop->run(0, false));
      probe_records.push_back(probe_loop->run(1, true));
      train_traced.clear();
      for (const Record& r : probe_records)
        if (r.ok && r.traced && r.replay) train_traced.push_back(&r);
      rows_from = probe_loop.get();
      layer_trainer = probe->trainer.get();
    }
    const bool traced_ok =
        std::any_of(records.begin(), records.end(),
                    [](const Record& r) { return r.ok && r.traced && r.index > 0; });
    if (train_traced.empty() || !traced_ok) {
      std::fprintf(stderr, "trainbench: no traced iteration succeeded; no ledger\n");
      return 2;
    }
    const trainbench::LayerResult layers = trainbench::probe_layers(
        *layer_trainer, model0_samples(*layer_trainer, rows_from->buffer()),
        train_traced.front()->replay->rows);
    metrics = per_layer_metrics(records, train_traced, restore_times, split, layers,
                                trainbench::net_shape(*layer_trainer),
                                !setup->training());
    for (const Record& r : probe_records) records.push_back(r);
  }

  std::size_t failed = 0;
  for (const Record& r : records) failed += r.ok ? 0 : 1;
  const std::size_t attempted = records.size();
  const unsigned hw = std::thread::hardware_concurrency();
  std::size_t timed = 0;
  for (const Record& r : records) timed += r.index > 0 ? 1 : 0;

  if (opts.trace) {
    for (const Metric& m : metrics) {
      // The iteration holds nothing but its stage calls, so core.closure is
      // near 1 by construction: this guards the benchmark's own loop against
      // unspanned work. core.trace_overhead is the independent comparison,
      // of the traced iteration with the untraced (train_episode) one.
      if (m.name == "core.closure" && m.value < kMinClosure) {
        std::fprintf(stderr,
                     "trainbench: FATAL: stage spans cover %.1f%% of the traced "
                     "iteration wall (< %.0f%%): the ledger does not account for the "
                     "iteration\n",
                     100.0 * m.value, 100.0 * kMinClosure);
        return 3;
      }
      if (m.name == "nn.update_closure" && trainer.update_shards() == 1 &&
          (m.value < kReplayLow || m.value > kReplayHigh))
        std::fprintf(stderr,
                     "trainbench: WARNING: update replay drift: replay / "
                     "core.update_s = %.3f (outside %.1f-%.1f); the replay no longer "
                     "matches trainer.update(), so the nn.* attribution is suspect\n",
                     m.value, kReplayLow, kReplayHigh);
    }
  }

  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(fingerprint.value_or(0)));
  using trainbench::json_number;
  using trainbench::json_string;
  std::string stamp = "{";
  auto field = [&stamp](const char* key, const std::string& json_value) {
    if (stamp.size() > 1) stamp += ", ";
    stamp += json_string(key) + ": " + json_value;
  };
  field("workload", json_string(w.name));
  field("seed", std::to_string(opts.seed));
  field("default_seed", std::to_string(kDefaultSeed));
  field("held_out_seed", std::to_string(kHeldOutSeed));
  field("trace", opts.trace ? "1" : "0");
  field("smoke", opts.smoke ? "true" : "false");
  field("seconds", json_number(opts.seconds));
  field("commit", json_string(opts.commit));
  field("source_digest", json_string(opts.source_digest));
  field("compiler", json_string(TRAINBENCH_COMPILER));
  field("flags", json_string(TRAINBENCH_FLAGS));
  field("build_type", json_string(TRAINBENCH_BUILD_TYPE));
  field("cpu_model", json_string(cpu_model()));
  field("hardware_threads", std::to_string(hw));
  field("workload_threads", std::to_string(w.threads));
  field("thread_limited", w.threads > 1 && hw < w.threads ? "true" : "false");
  field("knobs", trainbench::knobs_json(trainer.config()));
  field("effective_update_shards", std::to_string(trainer.update_shards()));
  field("iterations", std::to_string(attempted));
  field("timed_iterations", std::to_string(timed));
  field("fixed_iterations", std::to_string(w.fixed_iterations));
  field("episodes_trained", std::to_string(trainer.episodes_trained()));
  field("fingerprint", json_string(fp));
  stamp += "}";

  std::printf("trainbench %s seed=%llu trace=%d\n", w.name,
              static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0);
  std::printf("stamp %s\n", stamp.c_str());
  bool finite = true;
  std::string result_metrics;
  for (const Metric& m : metrics) {
    std::printf("  %-26s %14.6g %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
    if (!m.in_result) continue;
    finite = finite && std::isfinite(m.value);
    if (!result_metrics.empty()) result_metrics += ", ";
    result_metrics += json_string(m.name) + ": {\"value\": " +
                      json_number(std::isfinite(m.value) ? m.value : 0.0) +
                      ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::printf("  %-26s %14.6g %-8s %zu of %zu iterations failed\n", "failed_frac",
              static_cast<double>(failed) / static_cast<double>(attempted), "ratio",
              failed, attempted);
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              failed == 0 && finite ? "true" : "false", attempted, failed,
              result_metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opts = parse_args(argc, argv);
  if (!opts) return 2;
  try {
    return run(*opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "train_bench: %s\n", e.what());
    return 2;
  }
}
