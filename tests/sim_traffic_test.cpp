// Tests for the event-driven traffic simulator, including cross-checks
// against the analytic bandwidth model.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "arch/spec.hpp"
#include "sim/machine/spec.hpp"
#include "sim/machine/traffic_sim.hpp"
#include "sim/mem/bandwidth.hpp"

namespace p8::sim {
namespace {

TrafficConfig e870_cfg() {
  return TrafficConfig::from_spec(arch::e870(), MemBandwidthParams{},
                                  NocParams{});
}

TEST(TrafficSim, FromSpecRates) {
  const auto c = e870_cfg();
  EXPECT_EQ(c.chips, 8);
  EXPECT_NEAR(c.read_link_gbs, 8 * 19.2 * 0.93, 1e-9);
  EXPECT_NEAR(c.write_link_gbs, 8 * 9.6 * 0.958, 1e-9);
  EXPECT_DOUBLE_EQ(c.line_bytes, 128.0);
  // The link efficiencies are the bandwidth model's, not constants.
  MemBandwidthParams params;
  params.read_link_eff = 0.5;
  params.write_link_eff = 0.25;
  const auto scaled =
      TrafficConfig::from_spec(arch::e870(), params, NocParams{});
  EXPECT_NEAR(scaled.read_link_gbs, 8 * 19.2 * 0.5, 1e-9);
  EXPECT_NEAR(scaled.write_link_gbs, 8 * 9.6 * 0.25, 1e-9);
}

TEST(TrafficSim, FromSpecReadsTheDramLatency) {
  // The checked-in e870-centaur4 spec with a 110 ns local DRAM: every
  // request's base latency is the spec's, not the 95 ns default.
  const MachineSpec spec = load_machine_spec(
      std::string(P8_TEST_SPEC_DIR) + "/e870-centaur4-l4-32m.json");
  ASSERT_EQ(spec.noc.local_dram_latency_ns, 110.0);
  const auto cfg = TrafficConfig::from_spec(spec.system, spec.mem, spec.noc);
  EXPECT_EQ(cfg.base_latency_ns, 110.0);
  EXPECT_EQ(e870_cfg().base_latency_ns, 95.0);
}

TEST(TrafficSim, UnloadedLatencyIsBase) {
  auto cfg = e870_cfg();
  const TrafficResult r = simulate_traffic(cfg, {{0, 1, 0.0, false}});
  EXPECT_NEAR(r.mean_latency_ns, cfg.base_latency_ns, 1.0);
}

TEST(TrafficSim, LittlesLawAtLowLoad) {
  // One actor, mlp outstanding: throughput = mlp * line / latency.
  auto cfg = e870_cfg();
  cfg.core_port_gbs = 0.0;  // no port cap for this check
  for (const int mlp : {1, 2, 4}) {
    const TrafficResult r =
        simulate_traffic(cfg, {{0, mlp, 0.0, false}});
    const double expected = mlp * cfg.line_bytes / cfg.base_latency_ns;
    EXPECT_NEAR(r.total_gbs, expected, expected * 0.03) << "mlp " << mlp;
  }
}

TEST(TrafficSim, CorePortCapsSingleActor) {
  const auto cfg = e870_cfg();
  const TrafficResult r = simulate_traffic(cfg, {{0, 64, 0.0, false}});
  EXPECT_NEAR(r.total_gbs, cfg.core_port_gbs, cfg.core_port_gbs * 0.03);
}

TEST(TrafficSim, ReadLinkSaturates) {
  auto cfg = e870_cfg();
  cfg.core_port_gbs = 0.0;
  std::vector<ActorSpec> actors(8, ActorSpec{0, 64, 0.0, false});
  const TrafficResult r = simulate_traffic(cfg, actors);
  EXPECT_NEAR(r.total_gbs, cfg.read_link_gbs, cfg.read_link_gbs * 0.03);
}

TEST(TrafficSim, WriteOnlyDrainsThroughWriteLink) {
  auto cfg = e870_cfg();
  cfg.core_port_gbs = 0.0;
  std::vector<ActorSpec> actors(8, ActorSpec{0, 64, 1.0, false});
  const TrafficResult r = simulate_traffic(cfg, actors);
  EXPECT_NEAR(r.total_gbs, cfg.write_link_gbs, cfg.write_link_gbs * 0.03);
  EXPECT_NEAR(r.read_gbs, 0.0, 1e-9);
}

TEST(TrafficSim, MixedTrafficHonorsWriteFraction) {
  const auto cfg = e870_cfg();
  std::vector<ActorSpec> actors(4, ActorSpec{0, 8, 1.0 / 3.0, false});
  const TrafficResult r = simulate_traffic(cfg, actors);
  EXPECT_NEAR(r.write_gbs / r.total_gbs, 1.0 / 3.0, 0.02);
}

TEST(TrafficSim, RandomBankBoundsPerChip) {
  auto cfg = e870_cfg();
  cfg.core_port_gbs = 0.0;
  std::vector<ActorSpec> actors(8, ActorSpec{0, 32, 0.0, true});
  const TrafficResult r = simulate_traffic(cfg, actors);
  EXPECT_NEAR(r.total_gbs, cfg.random_bank_gbs,
              cfg.random_bank_gbs * 0.03);
}

TEST(TrafficSim, ChipsScaleIndependently) {
  const auto cfg = e870_cfg();
  std::vector<ActorSpec> one_chip(8, ActorSpec{0, 24, 0.0, true});
  std::vector<ActorSpec> two_chips = one_chip;
  for (auto spec : one_chip) {
    spec.chip = 1;
    two_chips.push_back(spec);
  }
  const double bw1 = simulate_traffic(cfg, one_chip).total_gbs;
  const double bw2 = simulate_traffic(cfg, two_chips).total_gbs;
  EXPECT_NEAR(bw2, 2.0 * bw1, bw1 * 0.05);
}

TEST(TrafficSim, QueueingInflatesLatencyAtSaturation) {
  const auto cfg = e870_cfg();
  const TrafficResult light = simulate_traffic(cfg, {{0, 1, 0.0, true}});
  std::vector<ActorSpec> heavy(8, ActorSpec{0, 32, 0.0, true});
  const TrafficResult loaded = simulate_traffic(cfg, heavy);
  EXPECT_GT(loaded.mean_latency_ns, 2.0 * light.mean_latency_ns);
}

TEST(TrafficSim, Deterministic) {
  const auto cfg = e870_cfg();
  std::vector<ActorSpec> actors(6, ActorSpec{0, 7, 0.25, true});
  const TrafficResult a = simulate_traffic(cfg, actors);
  const TrafficResult b = simulate_traffic(cfg, actors);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.total_gbs, b.total_gbs);
}

TEST(TrafficSim, Validation) {
  const auto cfg = e870_cfg();
  EXPECT_THROW(simulate_traffic(cfg, {}), std::invalid_argument);
  EXPECT_THROW(simulate_traffic(cfg, {{9, 1, 0.0, false}}),
               std::invalid_argument);
  EXPECT_THROW(simulate_traffic(cfg, {{0, 0, 0.0, false}}),
               std::invalid_argument);
  EXPECT_THROW(simulate_traffic(cfg, {{0, 1, 1.5, false}}),
               std::invalid_argument);
}

// -------------------------------------------- cross-model validation -------

TEST(TrafficSimVsAnalytic, RandomAccessCeilingAgrees) {
  // Both models must land on the paper's ~500 GB/s (41% of read peak).
  const auto cfg = e870_cfg();
  std::vector<ActorSpec> actors;
  for (int chip = 0; chip < 8; ++chip)
    for (int core = 0; core < 8; ++core)
      actors.push_back({chip, 32, 0.0, true});
  const double event = simulate_traffic(cfg, actors).total_gbs;
  const MemoryBandwidthModel analytic(arch::e870());
  const double formula = analytic.random_gbs(8, 8, 8, 16);
  EXPECT_NEAR(event, formula, formula * 0.05);
  EXPECT_NEAR(event, 500.0, 30.0);
}

TEST(TrafficSimVsAnalytic, SingleCoreStreamAgrees) {
  const auto cfg = e870_cfg();
  const double event =
      simulate_traffic(cfg, {{0, 24, 1.0 / 3.0, false}}).total_gbs;
  const MemoryBandwidthModel analytic(arch::e870());
  const double formula = analytic.stream_gbs(1, 1, 8, {2, 1});
  EXPECT_NEAR(event, formula, formula * 0.05);
}

TEST(TrafficSimVsAnalytic, EventSimBracketsMixedStreamsFromAbove) {
  // The event simulator has no read/write turnaround interference, so
  // on mixed full-system traffic it should land ABOVE the analytic
  // figure (which models the interference) but within ~25%.
  const auto cfg = e870_cfg();
  std::vector<ActorSpec> actors;
  for (int chip = 0; chip < 8; ++chip)
    for (int core = 0; core < 8; ++core)
      actors.push_back({chip, 24, 1.0 / 3.0, false});
  const double event = simulate_traffic(cfg, actors).total_gbs;
  const MemoryBandwidthModel analytic(arch::e870());
  const double formula = analytic.system_stream_gbs({2, 1});
  EXPECT_GT(event, formula);
  EXPECT_LT(event, formula * 1.25);
}

}  // namespace
}  // namespace p8::sim
