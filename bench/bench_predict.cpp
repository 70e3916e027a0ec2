// Differential validation of the analytic predictor against the
// event-driven simulator, across every machine preset (or any
// --machines list) — the gate behind BENCH_predict.json.
//
// Per machine the bench derives the same quantities from both tiers
// and pins their agreement under per-quantity tolerances
// (docs/PREDICT.md lists the derivations and the calibrated bands):
//
//   latency.<level>      Fig. 2 landmark chase latency: simulated
//                        pointer chase vs the closed-form plateau +
//                        stack-LRU translation penalty (tol 2-4%);
//   latency.remote-*     the DRAM landmark chased against an intra- /
//                        inter-group home chip (NoC hop folding);
//   stream.dscr<d>       prefetched steady-state scan latency vs
//                        latency/(depth+1) (tol 5%);
//   bw.*, noc.*          bandwidth roofs and NoC latency corners: the
//                        router answers them with the simulator's own
//                        models, built from the spec it serves, so the
//                        rows are exact (tol 1e-9) unless that spec
//                        differs from the simulator's (--perturb).
//
// The QueryRouter is exercised on the same matrix: every landmark
// query must route analytic (hits) and two deliberately near-boundary
// footprints must route to the simulator (fallbacks), with the
// fallback answers bit-identical to calling ubench directly — the
// router.fallback-identical verdict.
//
// The analytic tier's whole point is throughput: the bench times a
// burst of plateau queries and reports predict_queries_per_s next to
// the simulator's measured points/s; --gate enforces the >=1e5x
// separation (wall-clock numbers stay out of the JSON artifact, which
// holds only deterministic values and is byte-diffed by tier1.sh).
//
// Exit: 0 all gates pass, 1 a tolerance/verdict/speedup failure,
// 2 bad configuration.  --perturb scales the predictor's view of the
// NoC local DRAM latency (the simulator keeps the clean spec), which
// must trip the gate — the WILL_FAIL ctest twin proves the gate can
// fail.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "predict/machine_predict.hpp"
#include "ubench/workloads.hpp"

namespace {

using namespace p8;

/// One differential row: simulator ground truth vs predictor.
struct Row {
  std::string quantity;
  double sim = 0.0;
  double predicted = 0.0;
  double tol = 0.02;
};

struct MachineDiff {
  std::string selector;
  std::vector<Row> rows;
  std::uint64_t router_hits = 0;
  std::uint64_t router_fallbacks = 0;
  bool fallback_identical = false;
  std::vector<bench::Verdict> verdicts;  ///< rendered rows + router checks
  double sim_seconds = 0.0;              ///< wall clock of the sim side
  std::size_t sim_points = 0;            ///< simulated latency points
};

/// Tolerance for quantities where both tiers evaluate the same closed
/// form — agreement must be bit-exact up to formatting.
constexpr double kExactTol = 1e-9;

void add_row(MachineDiff& d, std::string quantity, double sim,
             double predicted, double tol) {
  d.rows.push_back(Row{std::move(quantity), sim, predicted, tol});
}

/// Runs the full differential for one machine.  `perturb` scales the
/// predictor's local DRAM latency (simulator unaffected).
MachineDiff run_machine(const std::string& selector,
                        const sim::MachineSpec& spec, double perturb,
                        std::size_t threads) {
  MachineDiff d;
  d.selector = selector;

  sim::MachineSpec predictor_spec = spec;
  predictor_spec.noc.local_dram_latency_ns *= perturb;

  const sim::Machine machine = spec.machine();
  predict::QueryRouter router(predictor_spec, threads);
  sim::CounterRegistry counters;
  router.attach_counters(&counters);

  const arch::SystemSpec& s = spec.system;
  const std::vector<bench::Landmark> marks =
      bench::hierarchy_landmarks(machine.hierarchy());

  // ---- Fig. 2 landmarks: simulated chase vs closed form ----------------
  common::Timer sim_timer;
  std::vector<std::uint64_t> sizes;
  for (const bench::Landmark& m : marks) sizes.push_back(m.bytes);
  const auto lat_points =
      ubench::memory_latency_scan(machine, sizes, 64 * 1024, /*dscr=*/1);
  d.sim_points = lat_points.size();

  // Remote homes at the DRAM landmark: the NoC hop folding.
  const std::uint64_t dram_bytes = marks.back().bytes;
  std::vector<std::pair<std::string, int>> remote_homes;
  if (s.total_chips() > 1) remote_homes.push_back({"remote-intra", 1});
  if (s.groups() > 1)
    remote_homes.push_back({"remote-inter", s.chips_per_group});
  std::vector<double> remote_sim;
  for (const auto& [label, home] : remote_homes) {
    ubench::ChaseOptions options;
    options.working_set_bytes = dram_bytes;
    options.home_chip = home;
    remote_sim.push_back(ubench::chase_latency_ns(machine, options));
    ++d.sim_points;
  }
  d.sim_seconds = sim_timer.seconds();

  std::vector<predict::Query> queries;
  for (const bench::Landmark& m : marks) {
    predict::Query q;
    q.kind = predict::Query::Kind::kChaseLatency;
    q.footprint_bytes = m.bytes;
    queries.push_back(q);
  }
  for (const auto& [label, home] : remote_homes) {
    predict::Query q;
    q.kind = predict::Query::Kind::kChaseLatency;
    q.footprint_bytes = dram_bytes;
    q.home_chip = home;
    queries.push_back(q);
  }
  const std::vector<predict::Answer> answers = router.answer_batch(queries);
  for (std::size_t i = 0; i < marks.size(); ++i) {
    // The deep rows carry the model's real approximations — the
    // page-walk closed form at DRAM, residual victim-pool occupancy
    // near the L4 landmark on wide chips — so they get the 4% band;
    // the on-chip cache rows are near-exact plateau reads (2%).
    const std::string level = marks[i].level;
    const bool deep = level == "DRAM" || level == "L4";
    add_row(d, "latency." + level, lat_points[i].latency_ns,
            answers[i].value, deep ? 0.04 : 0.02);
  }
  for (std::size_t r = 0; r < remote_homes.size(); ++r)
    add_row(d, "latency." + remote_homes[r].first, remote_sim[r],
            answers[marks.size() + r].value, 0.04);
  bool all_analytic = true;
  for (const predict::Answer& a : answers) all_analytic &= a.analytic;
  bench::add_check(d.verdicts, "router.landmarks-analytic", all_analytic,
                   "every mid-plateau landmark query must be served by the "
                   "analytic tier");

  // ---- prefetched stream steady state vs the event simulator -----------
  for (const int dscr : {3, 7}) {
    ubench::StrideOptions options;
    options.stride_lines = 1;
    options.dscr = dscr;
    const double sim_ns = ubench::stride_latency_ns(machine, options);
    predict::Query q;
    q.kind = predict::Query::Kind::kStreamLatency;
    q.dscr = dscr;
    const predict::Answer a = router.answer(q);
    add_row(d, "stream.dscr" + std::to_string(dscr), sim_ns, a.value, 0.05);
  }

  // ---- bandwidth roofs: the same closed forms, bit for bit -------------
  const std::vector<sim::RwMix> mixes = {{1, 0}, {16, 1}, {8, 1},
                                         {4, 1},  {2, 1},  {1, 1},
                                         {1, 2},  {1, 4},  {0, 1}};
  for (const sim::RwMix& mix : mixes) {
    predict::Query q;
    q.kind = predict::Query::Kind::kStreamBandwidth;
    q.mix = mix;
    q.chips = s.total_chips();
    q.cores = s.cores_per_chip;
    q.threads = s.processor.core.smt_threads;
    q.dscr = 0;
    add_row(d,
            "bw.mix-" + common::fmt_num(mix.read, 0) + ":" +
                common::fmt_num(mix.write, 0),
            machine.memory().system_stream_gbs(mix), router.answer(q).value,
            kExactTol);
  }
  const int smt = s.processor.core.smt_threads;
  for (int t = 1; t <= smt; ++t) {
    predict::Query q;
    q.kind = predict::Query::Kind::kStreamBandwidth;
    q.chips = 1;
    q.cores = 1;
    q.threads = t;
    q.dscr = 0;
    add_row(d, "bw.threads-" + std::to_string(t),
            machine.memory().stream_gbs(1, 1, t, q.mix),
            router.answer(q).value, kExactTol);
  }
  {
    predict::Query q;
    q.kind = predict::Query::Kind::kRandomBandwidth;
    q.chips = s.total_chips();
    q.cores = s.cores_per_chip;
    q.threads = smt;
    q.streams = 8;
    add_row(d, "bw.random",
            machine.memory().random_gbs(q.chips, q.cores, q.threads,
                                        q.streams),
            router.answer(q).value, kExactTol);
  }

  // ---- NoC latency corners ---------------------------------------------
  int noc_rows = 0;
  const auto noc_row = [&](const std::string& name, int consumer, int home) {
    ++noc_rows;
    predict::Query q;
    q.kind = predict::Query::Kind::kNocLatency;
    q.consumer_chip = consumer;
    q.home_chip = home;
    add_row(d, name, machine.noc().memory_latency_ns(consumer, home),
            router.answer(q).value, kExactTol);
  };
  noc_row("noc.local", 0, 0);
  if (s.total_chips() > 1) noc_row("noc.intra", 0, 1);
  if (s.groups() > 1) noc_row("noc.inter", 0, s.chips_per_group);

  // ---- router fallback: near-boundary queries hit the simulator --------
  // Footprints pinned to the L1 and L2 capacity boundaries sit inside
  // the guard band, where only the event simulator resolves the
  // transitional occupancy mix.
  const sim::Machine predictor_machine = predictor_spec.machine();
  bool identical = true;
  std::vector<predict::Query> boundary;
  for (const std::uint64_t bytes :
       {s.processor.core.l1d_bytes, s.processor.core.l2_bytes}) {
    predict::Query q;
    q.kind = predict::Query::Kind::kChaseLatency;
    q.footprint_bytes = bytes;
    boundary.push_back(q);
  }
  const std::vector<predict::Answer> fell = router.answer_batch(boundary);
  for (std::size_t i = 0; i < boundary.size(); ++i) {
    ubench::ChaseOptions options;
    options.working_set_bytes = boundary[i].footprint_bytes;
    const double direct =
        ubench::chase_latency_ns(predictor_machine, options);
    identical = identical && !fell[i].analytic && fell[i].value == direct;
  }
  d.fallback_identical = identical;
  bench::add_check(d.verdicts, "router.fallback-identical", identical,
                   "simulation-required queries must route to the "
                   "SweepRunner and answer bit-identically to ubench");

  d.router_hits = counters.value("predictor.hits");
  d.router_fallbacks = counters.value("predictor.fallbacks");
  // Every analytic answer above must have counted a hit: the landmark
  // batch, two stream rows, the mix sweep, the thread sweep, the
  // random roof and the NoC corners.
  const std::uint64_t expected_hits = queries.size() + 2 + mixes.size() +
                                      static_cast<std::uint64_t>(smt) + 1 +
                                      static_cast<std::uint64_t>(noc_rows);
  bench::add_check(
      d.verdicts, "router.counters",
      d.router_hits == expected_hits &&
          d.router_fallbacks == boundary.size(),
      "hits=" + std::to_string(d.router_hits) +
          " fallbacks=" + std::to_string(d.router_fallbacks));

  // Render the tolerance rows into verdicts for the shared gate path.
  for (const Row& row : d.rows)
    d.verdicts.push_back(bench::tolerance_verdict(
        bench::ToleranceCheck{row.quantity, row.sim, row.predicted, row.tol,
                              /*allow_warn=*/false}));
  return d;
}

/// Times a burst of plateau queries against the analytic tier.
double measure_queries_per_s(const predict::Predictor& predictor) {
  // 64 footprints spanning the staircase, visited round-robin; the
  // accumulated sum keeps the loop observable.
  std::vector<std::uint64_t> footprints;
  const std::uint64_t lo = 16 * 1024;
  const std::uint64_t hi =
      predictor.level(predictor.level_count() - 2).capacity_bytes * 4;
  for (std::size_t i = 0; i < 64; ++i)
    footprints.push_back(
        lo + (hi - lo) / 63 * static_cast<std::uint64_t>(i));
  const std::size_t n = 1u << 21;
  double acc = 0.0;
  common::Timer timer;
  for (std::size_t i = 0; i < n; ++i)
    acc += predictor.chase_latency_ns(footprints[i & 63]);
  const double seconds = timer.seconds();
  if (!(acc > 0.0)) std::fprintf(stderr, "warning: degenerate query burst\n");
  return static_cast<double>(n) / seconds;
}

std::string report_json(const std::vector<MachineDiff>& diffs, bool ok) {
  std::string out = "{\n  \"bench\": \"predict\",\n  \"all_ok\": ";
  out += ok ? "true" : "false";
  out += ",\n  \"machines\": [";
  for (std::size_t m = 0; m < diffs.size(); ++m) {
    const MachineDiff& d = diffs[m];
    out += m == 0 ? "\n" : ",\n";
    out += "    {\n      \"machine\": " + common::json_quote(d.selector) +
           ",\n      \"router_hits\": " + std::to_string(d.router_hits) +
           ",\n      \"router_fallbacks\": " +
           std::to_string(d.router_fallbacks) +
           ",\n      \"fallback_identical\": " +
           (d.fallback_identical ? "true" : "false") +
           ",\n      \"checks\": [";
    for (std::size_t i = 0; i < d.rows.size(); ++i) {
      const Row& r = d.rows[i];
      const bench::ToleranceCheck c{r.quantity, r.sim, r.predicted, r.tol,
                                    false};
      out += std::string(i ? ",\n" : "\n") +
             "        {\"quantity\": " + common::json_quote(r.quantity) +
             ", \"sim\": " + common::json_number(r.sim) +
             ", \"predicted\": " + common::json_number(r.predicted) +
             ", \"ratio\": " + common::json_number(bench::tolerance_ratio(c)) +
             ", \"tol\": " + common::json_number(r.tol) +
             ", \"status\": " + common::json_quote(bench::tolerance_status(c)) +
             "}";
    }
    out += "\n      ]\n    }";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p8;
  common::ArgParser args(argc, argv);
  const std::string machines_arg = args.get_string(
      "machines", "all",
      "comma-separated registry presets and/or spec .json paths; "
      "\"all\" = every registry preset");
  const std::string json_path = args.get_string(
      "json", "", "write the differential matrix (JSON) here; \"\" = off");
  const bool gate = args.get_flag(
      "gate", "exit 1 unless every tolerance, router and speedup gate holds");
  const double perturb = args.get_double(
      "perturb", 1.0,
      "scale the predictor's local DRAM latency (gate self-test)");
  const std::optional<std::size_t> threads_opt = bench::threads_arg(args);
  const bool no_audit = bench::no_audit_arg(args);
  if (auto exit_code = bench::finish_args(args)) return *exit_code;
  if (!threads_opt) return 2;
  if (perturb <= 0.0) {
    std::fprintf(stderr, "error: --perturb must be positive\n");
    return 2;
  }

  bench::print_header(
      "Predictor differential",
      "closed-form analytic tier vs the event-driven simulator");

  std::vector<std::string> selectors;
  if (machines_arg == "all") {
    selectors = sim::machine_names();
  } else {
    std::string token;
    for (const char ch : machines_arg + ",") {
      if (ch != ',') {
        token += ch;
        continue;
      }
      if (!token.empty()) selectors.push_back(token);
      token.clear();
    }
  }
  if (selectors.empty()) {
    std::fprintf(stderr, "error: --machines selected nothing\n");
    return 2;
  }

  std::vector<MachineDiff> diffs;
  for (const std::string& selector : selectors) {
    const auto spec = bench::load_machine(selector);
    if (!spec) return 2;
    if (!bench::gate_model(spec->machine(), no_audit)) return 2;
    diffs.push_back(run_machine(selector, *spec, perturb, *threads_opt));
  }

  bool all_ok = true;
  double sim_seconds = 0.0;
  std::size_t sim_points = 0;
  common::TextTable t({"Machine", "checks", "failed", "max |ratio-1|",
                       "router hits/fallbacks"});
  for (const MachineDiff& d : diffs) {
    const int failed = bench::print_failed(d.selector, d.verdicts);
    all_ok = all_ok && failed == 0;
    double worst = 0.0;
    for (const Row& r : d.rows) {
      const bench::ToleranceCheck c{r.quantity, r.sim, r.predicted, r.tol,
                                    false};
      worst = std::max(worst, std::abs(bench::tolerance_ratio(c) - 1.0));
    }
    t.add_row({d.selector, std::to_string(d.verdicts.size()),
               std::to_string(failed), common::fmt_num(worst, 4),
               std::to_string(d.router_hits) + " / " +
                   std::to_string(d.router_fallbacks)});
    sim_seconds += d.sim_seconds;
    sim_points += d.sim_points;
  }
  std::printf("%s\n", t.to_string().c_str());

  // Throughput separation: the analytic tier against the measured
  // simulator rate on the very same plateau quantities.  Wall-clock —
  // printed, gated, never baselined.
  const predict::Predictor predictor(*bench::load_machine(selectors.front()));
  const double qps = measure_queries_per_s(predictor);
  const double sim_pps =
      sim_seconds > 0.0 ? static_cast<double>(sim_points) / sim_seconds : 0.0;
  const double speedup = sim_pps > 0.0 ? qps / sim_pps : 0.0;
  std::printf(
      "predict_queries_per_s %.3g (simulator %.3g points/s, %.3gx)\n", qps,
      sim_pps, speedup);
  const bool fast_enough = speedup >= 1e5;
  if (gate && !fast_enough)
    std::fprintf(stderr,
                 "FAIL [speedup] analytic tier is %.3gx the simulator "
                 "(gate: >=1e5x)\n",
                 speedup);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    const std::string body = report_json(diffs, all_ok);
    std::fputs(body.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  const bool pass = all_ok && (!gate || fast_enough);
  std::printf(pass ? "predict differential: all gates hold\n"
                   : "predict differential: FAILURES (see stderr)\n");
  return gate ? (pass ? 0 : 1) : (all_ok ? 0 : 1);
}
