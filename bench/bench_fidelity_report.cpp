// Consolidated fidelity report: every quantitative claim the paper
// makes that this reproduction models, in one table — paper value,
// model value, ratio, and a PASS/WARN verdict (PASS within 10%).
// This is the machine-checkable version of EXPERIMENTS.md.
//
// Beyond the table, the binary is the repository's regression gate:
//
//   --gate           evaluate every check against its own calibrated
//                    tolerance (much tighter than the 10% of the
//                    table) plus the documented-WARN allowlist, check
//                    the counter invariants, and exit non-zero if any
//                    check fails — this is what scripts/tier1.sh and
//                    ctest run.
//   --json=PATH      machine-readable results (the checked-in
//                    BENCH_fidelity.json baseline is this output).
//   --perturb=F      scale MemBandwidthParams.read_link_eff by F
//                    before building the machine.  Used by the gate's
//                    own self-test: a perturbed model must FAIL.
//   --counters=PATH  dump the event counters the report's models
//                    record while solving (shared bench flag).
//
// Per-check tolerances are calibrated to the seed model (worst
// deviation plus headroom), so a change that moves any headline
// quantity beyond its historical agreement trips the gate even when
// it stays inside the loose 10% table verdict.
#include <cstdio>
#include <string>
#include <vector>

#include "arch/spec.hpp"
#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "roofline/roofline.hpp"
#include "sim/machine/machine.hpp"
#include "sim/machine/traffic_sim.hpp"
#include "ubench/workloads.hpp"

namespace {

/// One report row: the paper artifact and the shared tolerance check
/// (reference = paper value, value = model value).  `tol` gates
/// |model/paper - 1|; the table's PASS/WARN stays at the historical
/// 10% regardless.  `allow_warn` marks a documented deviation
/// (EXPERIMENTS.md): the gate reports ALLOWED instead of FAIL.
struct Check {
  std::string artifact;
  p8::bench::ToleranceCheck check;
};

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p8;

  common::ArgParser args(argc, argv);
  const bool gate = args.get_flag("gate", "enforce per-check tolerances; "
                                          "exit non-zero on any FAIL");
  const std::string json_path =
      args.get_string("json", "", "write machine-readable results here");
  const double perturb = args.get_double(
      "perturb", 1.0, "scale read_link_eff (gate self-test hook)");
  const bool no_audit = bench::no_audit_arg(args);
  const std::string counters_path = bench::counters_path_arg(args);
  if (auto exit_code = bench::finish_args(args)) return *exit_code;

  bench::print_header("Fidelity report",
                      "all modelled paper quantities in one table");

  sim::MemBandwidthParams mem_params;
  mem_params.read_link_eff *= perturb;
  const sim::Machine machine(arch::e870(), mem_params);
  if (!bench::gate_model(machine, no_audit)) return 2;

  // Local copies of the analytic models so the counter sink can be
  // attached; they solve identically to machine.memory()/noc().
  sim::CounterRegistry counters;
  sim::CounterRegistry* reg =
      (!counters_path.empty() || gate) ? &counters : nullptr;
  sim::MemoryBandwidthModel mem = machine.memory();
  sim::NocModel noc = machine.noc();
  sim::CoreSim core = machine.core_sim();
  if (reg != nullptr) {
    mem.attach_counters(reg);
    noc.attach_counters(reg);
    core.attach_counters(reg);
  }
  const auto roofline = roofline::RooflineModel::from_spec(machine.spec());

  std::vector<Check> checks;
  auto add = [&](const std::string& artifact, const std::string& quantity,
                 double paper, double model, double tol,
                 bool allow_warn = false) {
    checks.push_back({artifact, {quantity, paper, model, tol, allow_warn}});
  };

  // §II headlines (spec arithmetic: exact).
  add("SII", "192-way peak DP (GFLOP/s)", 6144,
      arch::max_power8_smp().peak_dp_gflops(), 0.02);
  add("SII", "192-way memory BW (GB/s)", 3686,
      arch::max_power8_smp().peak_mem_gbs(), 0.02);
  add("SII/IV", "E870 peak DP (GFLOP/s)", 2227, machine.peak_dp_gflops(),
      0.02);
  add("SII/IV", "E870 memory BW 2:1 (GB/s)", 1843, machine.peak_mem_gbs(),
      0.02);
  add("SIV", "E870 write-only roof (GB/s)", 614,
      machine.spec().peak_write_gbs(), 0.02);
  add("SIV", "machine balance (FLOP/byte)", 1.2, machine.spec().balance(),
      0.02);
  add("Fig9", "roofline ridge (FLOP/byte)", 1.2, roofline.ridge_oi(), 0.02);
  add("Fig9", "LBMHD bound @OI=1 (GFLOP/s)", 1843,
      roofline.attainable_gflops(1.0), 0.02);
  add("Fig9", "write-only bound @OI=1 (GFLOP/s)", 614,
      roofline.attainable_gflops(1.0, true), 0.02);

  // Table III.  Tolerances follow the seed's per-mix agreement: the
  // turnaround model is tightest at the ends of the mix range and
  // loosest around 1:1 (seed ratio 1.056).
  struct MixRow {
    const char* name;
    sim::RwMix mix;
    double paper;
    double tol;
  };
  for (const MixRow& row :
       {MixRow{"read-only", {1, 0}, 1141, 0.03},
        MixRow{"16:1", {16, 1}, 1208, 0.03}, MixRow{"8:1", {8, 1}, 1267, 0.04},
        MixRow{"4:1", {4, 1}, 1375, 0.06}, MixRow{"2:1", {2, 1}, 1472, 0.03},
        MixRow{"1:1", {1, 1}, 894, 0.08}, MixRow{"1:2", {1, 2}, 748, 0.05},
        MixRow{"1:4", {1, 4}, 658, 0.05},
        MixRow{"write-only", {0, 1}, 589, 0.03}})
    add("TabIII", std::string("STREAM ") + row.name + " (GB/s)", row.paper,
        mem.system_stream_gbs(row.mix), row.tol);

  // Figure 3.
  add("Fig3a", "single core peak (GB/s)", 26, mem.stream_gbs(1, 1, 8, {2, 1}),
      0.05);
  add("Fig3b", "single chip peak (GB/s)", 189, mem.stream_gbs(1, 8, 8, {2, 1}),
      0.06);

  // Table IV latencies and bandwidths.  Intra-group hops are exact;
  // the 2-hop inter-group paths sit ~3% high (seed).
  const double lat_paper[8] = {0, 123, 125, 133, 213, 235, 237, 243};
  const double lat_tol[8] = {0, 0.02, 0.02, 0.02, 0.02, 0.05, 0.05, 0.05};
  for (int chip = 1; chip < 8; ++chip)
    add("TabIV", "chip0<->chip" + std::to_string(chip) + " latency (ns)",
        lat_paper[chip], noc.memory_latency_ns(0, chip), lat_tol[chip]);
  add("TabIV", "intra one-dir BW (GB/s)", 30, noc.one_direction_gbs(0, 1),
      0.02);
  add("TabIV", "intra bi-dir BW (GB/s)", 53, noc.bidirection_gbs(0, 1), 0.02);
  add("TabIV", "partner one-dir BW (GB/s)", 45, noc.one_direction_gbs(0, 4),
      0.06);
  add("TabIV", "partner bi-dir BW (GB/s)", 87, noc.bidirection_gbs(0, 4),
      0.06);
  add("TabIV", "far one-dir BW (GB/s)", 45, noc.one_direction_gbs(0, 5), 0.03);
  add("TabIV", "far bi-dir BW (GB/s)", 82, noc.bidirection_gbs(0, 5), 0.03);
  add("TabIV", "interleaved to chip0 (GB/s)", 69,
      noc.interleaved_to_chip_gbs(0), 0.04);
  // Documented WARN: the model's congestion-aware solver settles near
  // 282 GB/s against the paper's 380 (see EXPERIMENTS.md) — allowed
  // until the routing model closes the gap, but still bounded so a
  // regression below the current figure trips the gate.
  add("TabIV", "all-to-all (GB/s)", 380, noc.all_to_all_gbs(), 0.10,
      /*allow_warn=*/true);
  add("TabIV", "X-bus aggregate (GB/s)", 632, noc.xbus_aggregate_gbs(), 0.03);
  add("TabIV", "A-bus aggregate (GB/s)", 206, noc.abus_aggregate_gbs(), 0.03);

  // Figure 4.
  add("Fig4", "random-access peak (GB/s)", 500, mem.random_gbs(8, 8, 8, 16),
      0.03);
  add("Fig4", "random peak / read peak (%)", 41,
      100.0 * mem.random_gbs(8, 8, 8, 16) / machine.spec().peak_read_gbs(),
      0.03);

  // Figure 5 (fractions of peak x100; cycle-exact).
  add("Fig5", "1 thread x 12 FMA (% peak)", 100,
      100.0 * core.run_fma_loop(1, 12).fraction_of_peak, 0.01);
  add("Fig5", "2 threads x 6 FMA (% peak)", 100,
      100.0 * core.run_fma_loop(2, 6).fraction_of_peak, 0.01);
  add("Fig5", "1 thread x 6 FMA (% peak)", 50,
      100.0 * core.run_fma_loop(1, 6).fraction_of_peak, 0.01);

  // Event-sim cross-checks (paper values again).
  const auto cfg = sim::TrafficConfig::from_spec(
      machine.spec(), machine.memory().params(), machine.noc().params());
  {
    std::vector<sim::ActorSpec> actors;
    for (int chip = 0; chip < 8; ++chip)
      for (int c = 0; c < 8; ++c) actors.push_back({chip, 32, 0.0, true});
    add("Fig4/eventsim", "random-access peak (GB/s)", 500,
        sim::simulate_traffic(cfg, actors).total_gbs, 0.03);
  }
  {
    std::vector<sim::ActorSpec> actors;
    for (int chip = 0; chip < 8; ++chip)
      for (int c = 0; c < 8; ++c) actors.push_back({chip, 24, 0.0, false});
    add("TabIII/eventsim", "read-only STREAM (GB/s)", 1141,
        sim::simulate_traffic(cfg, actors).total_gbs, 0.03);
  }

  common::TextTable t(
      {"Artifact", "Quantity", "Paper", "Model", "Model/Paper", "Verdict"});
  int pass = 0;
  int warn = 0;
  for (const auto& [artifact, c] : checks) {
    const double ratio = bench::tolerance_ratio(c);
    const bool ok = ratio > 0.9 && ratio < 1.1;
    (ok ? pass : warn) += 1;
    t.add_row({artifact, c.quantity, common::fmt_num(c.reference, 1),
               common::fmt_num(c.value, 1), common::fmt_num(ratio, 3),
               ok ? "PASS" : "WARN"});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("%d/%zu within 10%% of the paper (%d WARN; each WARN is "
              "discussed in EXPERIMENTS.md).\n",
              pass, checks.size(), warn);

  if (!json_path.empty()) {
    std::string body = "{\n  \"bench\": \"fidelity\",\n  \"checks\": [";
    bool first = true;
    for (const auto& [artifact, c] : checks) {
      body += first ? "\n" : ",\n";
      first = false;
      body += "    {\"artifact\": \"" + artifact + "\", \"quantity\": \"" +
              c.quantity + "\", \"paper\": " + json_num(c.reference) +
              ", \"model\": " + json_num(c.value) +
              ", \"ratio\": " + json_num(bench::tolerance_ratio(c)) +
              ", \"tol\": " + json_num(c.tol) + ", \"allow_warn\": " +
              (c.allow_warn ? "true" : "false") + ", \"status\": \"" +
              bench::tolerance_status(c) + "\"}";
    }
    body += "\n  ]\n}\n";
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::fputs(body.c_str(), f);
    std::fclose(f);
  }

  int failures = 0;
  if (gate) {
    // Counter invariants: replay a small Fig. 2-style chase with the
    // full probe stack attached and check the exact identities the
    // counter layer guarantees.  A miscounting registry is as much a
    // fidelity regression as a drifted headline number.
    sim::CounterRegistry probe_reg;
    ubench::ChaseOptions chase;
    chase.working_set_bytes = 4u << 20;
    chase.counters = &probe_reg;
    (void)ubench::chase_latency_ns(machine, chase);
    const std::uint64_t accesses = probe_reg.value("cache.loads") +
                                   probe_reg.value("cache.stores");
    const bool l1_ok = probe_reg.value("cache.l1.hit") +
                           probe_reg.value("cache.l1.miss") ==
                       accesses;
    const bool tlb_ok = probe_reg.value("tlb.erat.hit") +
                            probe_reg.value("tlb.erat.miss") ==
                        probe_reg.value("probe.accesses");
    const bool nonzero_ok = accesses > 0;

    std::printf("\nGate (per-check tolerances + counter invariants):\n");
    for (const auto& [artifact, c] : checks) {
      const std::string status = bench::tolerance_status(c);
      if (status == "PASS") continue;
      std::printf("  %-7s %s / %s: ratio %.3f vs tol %.2f\n", status.c_str(),
                  artifact.c_str(), c.quantity.c_str(),
                  bench::tolerance_ratio(c), c.tol);
      if (status == "FAIL") ++failures;
    }
    auto invariant = [&](const char* name, bool ok) {
      std::printf("  %-7s invariant: %s\n", ok ? "PASS" : "FAIL", name);
      if (!ok) ++failures;
    };
    invariant("cache.l1.hit + cache.l1.miss == loads + stores", l1_ok);
    invariant("tlb.erat.hit + tlb.erat.miss == probe.accesses", tlb_ok);
    invariant("chase produced demand accesses", nonzero_ok);
    std::printf("gate: %d check(s) failed.\n", failures);
  }

  if (!bench::write_counters(counters, counters_path, "fidelity")) return 1;
  return failures == 0 ? 0 : 1;
}
