// The eight performance knobs of core::PairUpConfig, read and set without
// naming any of them outside a requires-guard: when a later change deletes
// or renames a knob, the benchmark still compiles, records the knob as
// "absent", and measures whatever the library now does by default.
#pragma once

#include <string>
#include <type_traits>

#include "ledger.hpp"
#include "src/nn/inference.hpp"

namespace trainbench {

namespace knob_detail {

template <typename E>
std::string update_mode_name(E mode) {
  if constexpr (requires { E::kSerial; E::kPerSampleShards; E::kBatchedShards; }) {
    if (mode == E::kSerial) return "serial";
    if (mode == E::kPerSampleShards) return "per_sample";
    if (mode == E::kBatchedShards) return "batched";
  }
  return std::to_string(static_cast<long long>(mode));
}

template <typename E>
std::string update_path_name(E path) {
  if constexpr (requires { E::kTape; E::kFused; }) {
    if (path == E::kTape) return "tape";
    if (path == E::kFused) return "fused";
  }
  return std::to_string(static_cast<long long>(path));
}

template <typename E>
std::string kernel_tier_name(E tier) {
  if constexpr (requires { E::kReference; E::kFast; }) {
    if (tier == E::kReference) return "reference";
    if (tier == E::kFast) return "fast";
  }
  return std::to_string(static_cast<long long>(tier));
}

template <typename T>
std::string scalar(const T& value) {
  if constexpr (std::is_same_v<T, bool>) return value ? "true" : "false";
  else return std::to_string(value);
}

}  // namespace knob_detail

/// JSON object of the knobs' effective values ("absent" for a knob the
/// config no longer has).
template <typename Config>
std::string knobs_json(const Config& c) {
  using namespace knob_detail;
  std::string out = "{";
  auto add = [&out](const char* name, const std::string& json_value) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": " + json_value;
  };
  const std::string absent = json_string("absent");
  if constexpr (requires { c.num_envs; }) add("num_envs", scalar(c.num_envs));
  else add("num_envs", absent);
  if constexpr (requires { c.invariant_seeding; })
    add("invariant_seeding", scalar(c.invariant_seeding));
  else add("invariant_seeding", absent);
  if constexpr (requires { c.num_update_shards; })
    add("num_update_shards", scalar(c.num_update_shards));
  else add("num_update_shards", absent);
  if constexpr (requires { c.update_mode; })
    add("update_mode", json_string(update_mode_name(c.update_mode)));
  else add("update_mode", absent);
  if constexpr (requires { c.update_path; })
    add("update_path", json_string(update_path_name(c.update_path)));
  else add("update_path", absent);
  if constexpr (requires { c.inference_path; })
    add("inference_path", scalar(c.inference_path));
  else add("inference_path", absent);
  if constexpr (requires { c.fleet_batched; })
    add("fleet_batched", scalar(c.fleet_batched));
  else add("fleet_batched", absent);
  if constexpr (requires { c.kernel_tier; })
    add("kernel_tier", json_string(kernel_tier_name(c.kernel_tier)));
  else add("kernel_tier", absent);
  return out + "}";
}

/// Sets the two thread counts grid6_train_4t changes; every other knob
/// keeps its library default.
template <typename Config>
void set_thread_counts(Config& c, std::size_t envs, std::size_t shards) {
  if constexpr (requires { c.num_envs = envs; }) c.num_envs = envs;
  if constexpr (requires { c.num_update_shards = shards; }) c.num_update_shards = shards;
}

/// Gives a probe workspace the kernel tier the config's decisions run with.
template <typename Config>
void apply_kernel_tier(const Config& c, tsc::nn::InferenceWorkspace& ws) {
  if constexpr (requires { ws.set_kernel_tier(c.kernel_tier); })
    ws.set_kernel_tier(c.kernel_tier);
}

}  // namespace trainbench
