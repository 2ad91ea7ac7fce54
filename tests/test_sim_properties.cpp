// Property-based sweeps: simulator invariants that must hold across the
// whole configuration space (lane counts, saturation headways, yellow
// times, demand levels, signal policies). Each property is checked for
// every combination via parameterized tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <tuple>
#include <utility>
#include <vector>

#include "sim_fixtures.hpp"
#include "src/sim/simulator.hpp"

namespace tsc::sim {
namespace {

using test::Cross;

// ctest names each case after gtest's printout of it, which for a type
// without PrintTo is its raw bytes. Padding is spelled out as zeroed fields
// because copies need not preserve padding bytes, and the names must not
// change from run to run.
struct SweepCase {
  std::uint32_t lanes;
  std::uint32_t pad0 = 0;
  double sat_headway;
  double yellow;
  double demand_veh_h;   // per approach
  int policy;            // 0 = hold phase 0, 1 = alternate every 10 s
  std::int32_t pad1 = 0;
};
static_assert(sizeof(SweepCase) == 40, "SweepCase has hidden padding");

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  return "lanes" + std::to_string(c.lanes) + "_h" +
         std::to_string(static_cast<int>(c.sat_headway * 10)) + "_y" +
         std::to_string(static_cast<int>(c.yellow)) + "_d" +
         std::to_string(static_cast<int>(c.demand_veh_h)) + "_p" +
         std::to_string(c.policy);
}

class SimulatorSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  /// Runs 300 ticks of a crossing under the case's config and policy,
  /// checking stepwise invariants throughout.
  void run_and_check() {
    const SweepCase& c = GetParam();
    Cross cross(200.0, 10.0, c.lanes);
    auto f1 = cross.flow_ns({{0.0, c.demand_veh_h}, {300.0, c.demand_veh_h}});
    auto f2 = cross.flow_we({{0.0, c.demand_veh_h}, {300.0, c.demand_veh_h}});
    SimConfig config;
    config.sat_headway = c.sat_headway;
    config.yellow_time = c.yellow;
    Simulator sim(&cross.net, {f1, f2}, config, 1234);

    std::size_t last_finished = 0;
    for (int tick = 0; tick < 300; ++tick) {
      if (c.policy == 1 && tick % 10 == 0)
        sim.set_phase(cross.center, (tick / 10) % 2);
      sim.step();

      // Invariant: conservation. Every spawned vehicle is finished, on a
      // link, or in an entry backlog.
      std::uint32_t on_network = 0;
      for (LinkId l = 0; l < cross.net.num_links(); ++l)
        on_network += sim.link_count(l);
      std::size_t backlog = 0;
      for (const Vehicle& v : sim.vehicles())
        if (!v.finished && v.entered < 0.0) ++backlog;
      ASSERT_EQ(sim.vehicles_spawned(),
                sim.vehicles_finished() + on_network + backlog);

      // Invariant: storage. No link ever exceeds its capacity.
      for (LinkId l = 0; l < cross.net.num_links(); ++l)
        ASSERT_LE(sim.link_count(l), sim.link_capacity(l));

      // Invariant: monotone completions.
      ASSERT_GE(sim.vehicles_finished(), last_finished);
      last_finished = sim.vehicles_finished();

      // Invariant: queues never exceed total on-link counts.
      for (LinkId l = 0; l < cross.net.num_links(); ++l)
        ASSERT_LE(sim.link_queue(l), sim.link_count(l));

      // Invariant: detector view never exceeds ground truth.
      for (LinkId l = 0; l < cross.net.num_links(); ++l) {
        ASSERT_LE(sim.detector_queue(l), sim.link_queue(l));
        ASSERT_LE(sim.detector_count(l), sim.link_count(l));
      }

      // Invariant: non-negative measures.
      ASSERT_GE(sim.network_avg_wait(), 0.0);
      ASSERT_GE(sim.average_travel_time(), 0.0);
    }

    // Invariant: every finished trip took at least the free-flow time
    // (two 200 m links at 10 m/s = 40 s).
    for (const Vehicle& v : sim.vehicles()) {
      if (!v.finished) continue;
      ASSERT_GE(v.exit_time - v.depart_scheduled, 40.0 - 1e-9);
      ASSERT_GE(v.wait_total, 0.0);
    }

    // Invariant: determinism - replay from the same seed matches exactly.
    Simulator replay(&cross.net, {f1, f2}, config, 1234);
    for (int tick = 0; tick < 300; ++tick) {
      if (c.policy == 1 && tick % 10 == 0)
        replay.set_phase(cross.center, (tick / 10) % 2);
      replay.step();
    }
    ASSERT_EQ(replay.vehicles_spawned(), sim.vehicles_spawned());
    ASSERT_EQ(replay.vehicles_finished(), sim.vehicles_finished());
    ASSERT_DOUBLE_EQ(replay.average_travel_time(), sim.average_travel_time());
  }
};

TEST_P(SimulatorSweep, InvariantsHold) { run_and_check(); }

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (std::uint32_t lanes : {1u, 2u})
    for (double headway : {1.5, 2.0, 3.0})
      for (double yellow : {0.0, 2.0})
        for (double demand : {200.0, 900.0})
          for (int policy : {0, 1})
            cases.push_back({.lanes = lanes,
                             .sat_headway = headway,
                             .yellow = yellow,
                             .demand_veh_h = demand,
                             .policy = policy});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(ConfigSpace, SimulatorSweep,
                         ::testing::ValuesIn(sweep_cases()), case_name);

// ---------------------------------------------------------------------------
// Throughput property: with permanent green and saturated demand, measured
// discharge approaches the configured saturation flow.

class SaturationFlow : public ::testing::TestWithParam<double> {};

TEST_P(SaturationFlow, DischargeMatchesConfiguredHeadway) {
  const double headway = GetParam();
  Cross cross;
  // Saturate the NS approach; phase 0 keeps it green permanently.
  auto f = cross.flow_ns({{0.0, 3000.0}, {400.0, 3000.0}});
  SimConfig config;
  config.sat_headway = headway;
  Simulator sim(&cross.net, {f}, config, 77);
  sim.step_seconds(100.0);  // fill the queue
  const std::size_t before = sim.vehicles_finished();
  sim.step_seconds(200.0);
  const double rate =
      static_cast<double>(sim.vehicles_finished() - before) / 200.0;
  // The theoretical saturation rate is 1/headway; allow simulation slack
  // (the queue occasionally starves while arrivals are in the approach
  // zone at high headway).
  EXPECT_GT(rate, 0.75 / headway);
  EXPECT_LE(rate, 1.0 / headway + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Headways, SaturationFlow,
                         ::testing::Values(1.5, 2.0, 2.5, 4.0),
                         [](const auto& info) {
                           return "h" + std::to_string(static_cast<int>(
                                            info.param * 10));
                         });

// ---------------------------------------------------------------------------
// Demand-response property: more demand never yields fewer completions
// under the same (work-conserving, alternating) signal policy.

// ---------------------------------------------------------------------------
// Yellow-clearance interlock property: no queued vehicle crosses the
// stopline of a node that is clearing — including the FULL restarted
// clearance after a mid-yellow retarget. Pre-fix,
// SignalController::request_phase kept the original countdown on a
// retarget, so the new phase could go green (and discharge) less than
// yellow_time after being chosen; this sweep caught that as a vehicle
// advancing within the [retarget, retarget + yellow_time) window.

TEST(YellowClearanceProperty, NoDischargeDuringYellowOrFreshRetarget) {
  // A 4-way crossing with THREE phases so a mid-yellow retarget can name a
  // phase that differs from both the current and the pending one.
  RoadNetwork net;
  const NodeId center = net.add_node(NodeType::kSignalized, 0, 0, "C");
  const NodeId n = net.add_node(NodeType::kBoundary, 0, 200, "N");
  const NodeId s = net.add_node(NodeType::kBoundary, 0, -200, "S");
  const NodeId w = net.add_node(NodeType::kBoundary, -200, 0, "W");
  const NodeId e = net.add_node(NodeType::kBoundary, 200, 0, "E");
  const LinkId n_in = net.add_link(n, center, 200, 1, 10, "n_in");
  const LinkId s_out = net.add_link(center, s, 200, 1, 10, "s_out");
  const LinkId s_in = net.add_link(s, center, 200, 1, 10, "s_in");
  const LinkId n_out = net.add_link(center, n, 200, 1, 10, "n_out");
  const LinkId w_in = net.add_link(w, center, 200, 1, 10, "w_in");
  const LinkId e_out = net.add_link(center, e, 200, 1, 10, "e_out");
  const LinkId e_in = net.add_link(e, center, 200, 1, 10, "e_in");
  const LinkId w_out = net.add_link(center, w, 200, 1, 10, "w_out");
  const MovementId m_ns = net.add_movement(n_in, s_out, Turn::kThrough, {0});
  const MovementId m_sn = net.add_movement(s_in, n_out, Turn::kThrough, {0});
  const MovementId m_we = net.add_movement(w_in, e_out, Turn::kThrough, {0});
  const MovementId m_ew = net.add_movement(e_in, w_out, Turn::kThrough, {0});
  net.set_phases(center, {{m_ns, m_sn}, {m_we}, {m_ew}});
  net.finalize();

  auto make_flow = [](LinkId in, LinkId out) {
    FlowSpec f;
    f.route = {in, out};
    f.profile = {{0.0, 700.0}, {400.0, 700.0}};
    return f;
  };
  SimConfig config;  // tick 1 s, yellow 2 s
  Simulator sim(&net,
                {make_flow(n_in, s_out), make_flow(s_in, n_out),
                 make_flow(w_in, e_out), make_flow(e_in, w_out)},
                config, 321);

  const LinkId in_links[] = {n_in, s_in, w_in, e_in};
  auto on_in_link = [&](const Vehicle& v) {
    const LinkId l = sim.flows()[v.flow].route[v.hop];
    return std::find(std::begin(in_links), std::end(in_links), l) !=
           std::end(in_links);
  };

  double last_retarget = -1e9;
  for (int tick = 0; tick < 400; ++tick) {
    // Every 20 ticks start a switch; one tick into its yellow, change the
    // target again (when that names a genuinely different phase).
    if (tick % 20 == 10) sim.set_phase(center, (tick / 20 + 1) % 3);
    if (tick % 20 == 11 && sim.signal(center).in_yellow()) {
      const std::size_t target = (tick / 20 + 2) % 3;
      if (target != sim.signal(center).phase())
        last_retarget = static_cast<double>(tick);
      sim.set_phase(center, target);
    }

    const bool yellow_before = sim.signal(center).in_yellow();
    const bool clearing =
        sim.now() + 1e-9 < last_retarget + config.yellow_time;
    std::vector<std::pair<std::size_t, std::uint32_t>> held;  // index, hop
    if (yellow_before || clearing) {
      const auto& vehicles = sim.vehicles();
      for (std::size_t i = 0; i < vehicles.size(); ++i) {
        const Vehicle& v = vehicles[i];
        if (v.finished || v.entered < 0.0) continue;
        if (on_in_link(v)) held.push_back({i, v.hop});
      }
    }
    sim.step();
    for (const auto& [idx, hop] : held)
      ASSERT_EQ(sim.vehicles()[idx].hop, hop)
          << "vehicle " << idx << " crossed a clearing stopline at tick "
          << tick;
  }
  // The sweep must have exercised real traffic, not an empty intersection.
  EXPECT_GT(sim.vehicles_finished(), 50u);
}

TEST(DemandMonotonicity, CompletionsGrowWithDemand) {
  std::size_t prev_finished = 0;
  for (double demand : {100.0, 300.0, 600.0}) {
    Cross cross;
    auto f = cross.flow_ns({{0.0, demand}, {400.0, demand}});
    Simulator sim(&cross.net, {f}, SimConfig{}, 55);
    sim.step_seconds(400.0);  // NS green throughout (phase 0)
    EXPECT_GE(sim.vehicles_finished(), prev_finished);
    prev_finished = sim.vehicles_finished();
  }
  EXPECT_GT(prev_finished, 20u);
}

}  // namespace
}  // namespace tsc::sim
