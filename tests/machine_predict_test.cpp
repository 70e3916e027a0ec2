// The closed-form predictor (src/predict/machine_predict) and its
// QueryRouter: the plateau staircase and routing policy, and the
// fallback contract: a simulation-required query answered through the
// router must equal the direct ubench run exactly.
//
// The property section runs the predictor over randomized audit-clean
// machine configurations (same generator discipline as
// sim_property_test): predicted chase latency is monotone
// non-decreasing in footprint, the bandwidth roofs (the predictor's
// machine().memory()) order the same way the latency plateaus do (more
// capacity -> higher latency; more chips/cores/threads -> no lower
// roof), and every prediction is finite and positive — the closed
// forms never divide through zero or throw for a spec the audit
// accepts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "predict/machine_predict.hpp"
#include "proptest.hpp"
#include "sim/counters.hpp"
#include "sim/machine/machine.hpp"
#include "sim/machine/spec.hpp"
#include "ubench/workloads.hpp"

namespace {

using namespace p8;

sim::MachineSpec e870() { return sim::machine_spec("e870"); }

/// Same structural re-roll as sim_property_test's generator: a random
/// registry preset with the knobs the audit polices swept across (and
/// beyond) the plausible POWER8 range.
sim::MachineSpec random_spec(proptest::Gen& gen) {
  sim::MachineSpec s = sim::machine_spec(
      sim::machine_names()[static_cast<std::size_t>(gen.int_range(
          0, static_cast<int>(sim::machine_names().size()) - 1))]);
  arch::SystemSpec& sys = s.system;
  sys.sockets = gen.int_range(1, 16);
  sys.chips_per_socket = gen.pick({1, 1, 1, 2});
  sys.cores_per_chip = gen.int_range(1, 12);
  sys.centaurs_per_chip = gen.int_range(1, 8);
  sys.clock_ghz = gen.real_range(2.0, 5.5);
  sys.chips_per_group = gen.pick({1, 2, 3, 4, 6, 8, 16});
  sys.processor.core.smt_threads = gen.pick({1, 2, 4, 8});
  if (gen.chance(0.3)) sys.xbus_gbs = gen.real_range(10.0, 80.0);
  if (gen.chance(0.3)) sys.abus_gbs = gen.real_range(5.0, 30.0);
  if (gen.chance(0.3)) sys.abus_links_per_pair = gen.int_range(1, 4);
  if (gen.chance(0.2)) {
    sys.centaur.read_link_gbs = gen.real_range(5.0, 40.0);
    sys.centaur.write_link_gbs = sys.centaur.read_link_gbs / 2.0;
  }
  if (gen.chance(0.2)) s.mem.stream_latency_ns = gen.real_range(60.0, 300.0);
  if (gen.chance(0.2)) s.noc.ingest_cap_gbs = gen.real_range(30.0, 150.0);
  return s;
}

// ---------------------------------------------------------------------------
// Unit pins: the staircase.

TEST(Predictor, PlateauStaircaseFollowsTheHierarchy) {
  const sim::MachineSpec spec = e870();
  const predict::Predictor p(spec);
  const auto& core = spec.system.processor.core;

  EXPECT_EQ(p.plateau_level(1), sim::ServiceLevel::kL1);
  EXPECT_EQ(p.plateau_level(core.l1d_bytes), sim::ServiceLevel::kL1);
  EXPECT_EQ(p.plateau_level(core.l1d_bytes + 1), sim::ServiceLevel::kL2);
  EXPECT_EQ(p.plateau_level(core.l2_bytes), sim::ServiceLevel::kL2);
  EXPECT_EQ(p.plateau_level(core.l2_bytes + 1), sim::ServiceLevel::kL3Local);
  // The deepest finite level is still not DRAM...
  const auto& deepest = p.level(p.level_count() - 2);
  EXPECT_EQ(p.plateau_level(deepest.capacity_bytes),
            deepest.level);
  // ...and one byte past it spills to DRAM.
  EXPECT_EQ(p.plateau_level(deepest.capacity_bytes + 1),
            sim::ServiceLevel::kDram);
}

TEST(Predictor, StaircaseCapacitiesAndLatenciesAreOrdered) {
  const predict::Predictor p(e870());
  ASSERT_GE(p.level_count(), 3u);
  for (std::size_t i = 1; i < p.level_count(); ++i) {
    EXPECT_GT(p.level(i).capacity_bytes, p.level(i - 1).capacity_bytes);
    EXPECT_GE(p.level(i).latency_ns, p.level(i - 1).latency_ns);
  }
}

// ---------------------------------------------------------------------------
// Routing policy and the fallback contract.

TEST(QueryRouter, ClassifiesByPatternAndGuardBand) {
  const sim::MachineSpec spec = e870();
  predict::QueryRouter router(spec, 1);
  const auto& core = spec.system.processor.core;

  predict::Query q;
  q.kind = predict::Query::Kind::kChaseLatency;
  q.footprint_bytes = core.l2_bytes * 4;  // far from every boundary
  EXPECT_TRUE(router.analytic_servable(q));
  q.footprint_bytes = core.l2_bytes;  // exactly on a boundary
  EXPECT_FALSE(router.analytic_servable(q));
  q.footprint_bytes = core.l2_bytes * 4;
  q.dscr = 7;  // prefetched chase: only the simulator resolves it
  EXPECT_FALSE(router.analytic_servable(q));
  q.dscr = 1;
  q.pattern = ubench::ChasePattern::kForwardStride;
  EXPECT_FALSE(router.analytic_servable(q));

  predict::Query s;
  s.kind = predict::Query::Kind::kStreamLatency;
  s.stride_lines = 1;
  EXPECT_TRUE(router.analytic_servable(s));
  s.stride_lines = 256;
  EXPECT_FALSE(router.analytic_servable(s));

  predict::Query b;
  b.kind = predict::Query::Kind::kStreamBandwidth;
  EXPECT_TRUE(router.analytic_servable(b));
  b.kind = predict::Query::Kind::kRandomBandwidth;
  EXPECT_TRUE(router.analytic_servable(b));
  b.kind = predict::Query::Kind::kNocLatency;
  EXPECT_TRUE(router.analytic_servable(b));
}

TEST(QueryRouter, FallbackIsBitIdenticalToTheDirectRunAndCounted) {
  const sim::MachineSpec spec = e870();
  predict::QueryRouter router(spec, 1);
  sim::CounterRegistry registry;
  router.attach_counters(&registry);

  predict::Query boundary;
  boundary.kind = predict::Query::Kind::kChaseLatency;
  boundary.footprint_bytes = spec.system.processor.core.l2_bytes;
  predict::Query analytic;
  analytic.kind = predict::Query::Kind::kChaseLatency;
  analytic.footprint_bytes = spec.system.processor.core.l2_bytes * 4;

  const auto answers = router.answer_batch({boundary, analytic});
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_FALSE(answers[0].analytic);
  EXPECT_TRUE(answers[1].analytic);

  ubench::ChaseOptions options;
  options.working_set_bytes = boundary.footprint_bytes;
  options.page_bytes = boundary.page_bytes;
  options.dscr = boundary.dscr;
  const double direct = ubench::chase_latency_ns(router.machine(), options);
  EXPECT_EQ(answers[0].value, direct);
  EXPECT_EQ(answers[1].value,
            router.predictor().chase_latency_ns(analytic.footprint_bytes));

  EXPECT_EQ(registry.value("predictor.hits"), 1u);
  EXPECT_EQ(registry.value("predictor.fallbacks"), 1u);
}

TEST(QueryRouter, StreamFallbackHonoursTheChips) {
  const sim::MachineSpec spec = e870();
  predict::QueryRouter router(spec, 1);
  // A remote-homed unit-stride stream pays the fabric hops in the
  // simulator as it does in the closed form (bench_predict's 5%).
  for (const int dscr : {3, 7}) {
    ubench::StrideOptions options;
    options.stride_lines = 1;
    options.dscr = dscr;
    options.home_chip = 1;
    const double simulated =
        ubench::stride_latency_ns(router.machine(), options);
    EXPECT_NEAR(simulated / router.predictor().stream_latency_ns(dscr, 0, 1),
                1.0, 0.05)
        << "dscr " << dscr;
  }
  // The router's fallback forwards both chips to the simulator.
  predict::Query q;
  q.kind = predict::Query::Kind::kStreamLatency;
  q.stride_lines = 4;
  q.dscr = 7;
  q.home_chip = 1;
  ASSERT_FALSE(router.analytic_servable(q));
  ubench::StrideOptions options;
  options.stride_lines = q.stride_lines;
  options.dscr = q.dscr;
  options.page_bytes = q.page_bytes;
  options.home_chip = q.home_chip;
  const double remote = router.answer(q).value;
  EXPECT_EQ(remote, ubench::stride_latency_ns(router.machine(), options));
  q.home_chip = 0;
  EXPECT_LT(router.answer(q).value, remote);
}

// ---------------------------------------------------------------------------
// A checked-in, audit-clean spec that is no preset.

sim::MachineSpec spec_file(const std::string& name) {
  std::ifstream in(std::string(P8_TEST_SPEC_DIR) + "/" + name);
  std::stringstream text;
  text << in.rdbuf();
  return sim::MachineSpec::from_json(text.str());
}

TEST(QueryRouter, TiersAgreeOnANonPresetSpec) {
  // e870-centaur4 with 32 MB per Centaur (a 128 MB L4 per chip, twice
  // the chip L3) and a 110 ns local DRAM.  Both numbers reach the
  // simulator, the predictor and the landmarks through
  // Machine::hierarchy() alone.
  const sim::MachineSpec spec = spec_file("e870-centaur4-l4-32m.json");
  ASSERT_TRUE(spec.audit().diagnostics.empty()) << spec.audit().to_string();
  predict::QueryRouter router(spec, 1);
  const predict::Predictor& p = router.predictor();
  ASSERT_EQ(p.level(p.level_count() - 2).level, sim::ServiceLevel::kL4);

  // One chase mid-way up each step of the staircase (DRAM: twice the
  // deepest cache), under bench_predict's tolerances: 2% on chip, 4%
  // for the L4 and DRAM rows.
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < p.level_count(); ++i) {
    const predict::Predictor::Level& level = p.level(i);
    const bool dram = level.level == sim::ServiceLevel::kDram;
    predict::Query q;
    q.kind = predict::Query::Kind::kChaseLatency;
    q.footprint_bytes = dram ? 2 * below : (below + level.capacity_bytes) / 2;
    ASSERT_TRUE(router.analytic_servable(q)) << q.footprint_bytes;
    ubench::ChaseOptions options;
    options.working_set_bytes = q.footprint_bytes;
    const double simulated =
        ubench::chase_latency_ns(router.machine(), options);
    const bool deep = dram || level.level == sim::ServiceLevel::kL4;
    EXPECT_NEAR(router.answer(q).value / simulated, 1.0, deep ? 0.04 : 0.02)
        << sim::to_string(level.level) << " at " << q.footprint_bytes << " B";
    below = level.capacity_bytes;
  }

  // Unit-stride prefetched streams: 5%.
  for (const int dscr : {3, 7}) {
    predict::Query q;
    q.kind = predict::Query::Kind::kStreamLatency;
    q.dscr = dscr;
    ASSERT_TRUE(router.analytic_servable(q));
    ubench::StrideOptions options;
    options.stride_lines = 1;
    options.dscr = dscr;
    const double simulated =
        ubench::stride_latency_ns(router.machine(), options);
    EXPECT_NEAR(router.answer(q).value / simulated, 1.0, 0.05)
        << "dscr " << dscr;
  }
}

// ---------------------------------------------------------------------------
// Properties over randomized audit-clean configurations.

TEST(PredictorProperty, ChaseLatencyMonotoneInFootprint) {
  P8_PROP(gen, 120, 0xfeedf00d) {
    const sim::MachineSpec spec = random_spec(gen);
    if (!spec.audit().ok()) continue;
    const predict::Predictor p(spec);
    const std::uint64_t page = gen.chance(0.5) ? 64 * 1024 : 16ull << 20;
    std::uint64_t footprint = gen.range(4 * 1024, 256 * 1024);
    double prev = p.chase_latency_ns(footprint, page);
    for (int step = 0; step < 12; ++step) {
      footprint += gen.range(footprint / 2, footprint * 3);
      const double next = p.chase_latency_ns(footprint, page);
      EXPECT_LE(prev, next + 1e-9)
          << "latency fell from " << prev << " to " << next << " at footprint "
          << footprint;
      prev = next;
    }
  }
}

TEST(PredictorProperty, RoofOrderingMatchesPlateauOrdering) {
  P8_PROP(gen, 120, 0x400fbeef) {
    const sim::MachineSpec spec = random_spec(gen);
    if (!spec.audit().ok()) continue;
    const predict::Predictor p(spec);
    const sim::MemoryBandwidthModel& mem = p.machine().memory();
    // Plateau ordering: deeper levels cost more and hold more.
    for (std::size_t i = 1; i < p.level_count(); ++i) {
      EXPECT_GT(p.level(i).capacity_bytes, p.level(i - 1).capacity_bytes);
      EXPECT_GE(p.level(i).latency_ns, p.level(i - 1).latency_ns);
    }
    // Roof ordering: more chips/threads/streams never lowers a roof.
    const sim::RwMix mix{2.0, 1.0};
    const int cores = spec.system.cores_per_chip;
    const int smt = spec.system.processor.core.smt_threads;
    double prev = 0.0;
    for (int chips = 1; chips <= spec.system.total_chips(); ++chips) {
      const double roof = mem.stream_gbs(chips, cores, smt, mix);
      EXPECT_GE(roof, prev);
      prev = roof;
    }
    prev = 0.0;
    for (int threads = 1; threads <= smt; threads *= 2) {
      const double roof = mem.stream_gbs(1, cores, threads, mix);
      EXPECT_GE(roof, prev);
      prev = roof;
    }
    prev = 0.0;
    for (int streams = 1; streams <= 32; streams *= 2) {
      const double roof = mem.random_gbs(1, cores, smt, streams);
      EXPECT_GE(roof, prev);
      prev = roof;
    }
  }
}

TEST(PredictorProperty, AuditCleanSpecsPredictFiniteAndPositive) {
  int clean = 0;
  P8_PROP(gen, 200, 0x9d1c7a11) {
    const sim::MachineSpec spec = random_spec(gen);
    if (!spec.audit().ok()) continue;
    ++clean;
    const predict::Predictor p(spec);
    const sim::MemoryBandwidthModel& mem = p.machine().memory();
    const int chips = spec.system.total_chips();
    const sim::RwMix mix{gen.real_range(0.0, 4.0), 1.0};
    const std::uint64_t footprint = gen.range(1, 1ull << 36);
    const int chip = gen.int_range(0, chips - 1);
    const int smt = spec.system.processor.core.smt_threads;
    const double values[] = {
        p.chase_latency_ns(footprint, gen.chance(0.5) ? 64 * 1024 : 16ull << 20,
                           chip, 0),
        p.stream_latency_ns(gen.int_range(0, 7), chip, 0),
        mem.stream_gbs(gen.int_range(1, chips), spec.system.cores_per_chip,
                       gen.int_range(1, smt), mix),
        mem.system_stream_gbs(mix),
        mem.random_gbs(1, spec.system.cores_per_chip, smt, gen.int_range(1, 64)),
        p.machine().noc().memory_latency_ns(chip, gen.int_range(0, chips - 1)),
    };
    for (double v : values) {
      EXPECT_TRUE(std::isfinite(v)) << "non-finite prediction";
      EXPECT_GT(v, 0.0) << "non-positive prediction";
    }
  }
  // The generator must actually exercise the predictor, not skip
  // everything.
  EXPECT_GT(clean, 20);
}

}  // namespace
