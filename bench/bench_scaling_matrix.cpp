// Cross-configuration scaling matrix: replays the paper's structural
// claims against every machine in the registry (or any --machines
// list), not just the calibrated E870.
//
// Per machine it regenerates the skeleton of the headline results —
// Fig. 2 latency landmarks, Fig. 3 thread/chip bandwidth scaling, the
// Table III read:write mix sweep, and the Table IV intra- vs
// inter-group NoC corner — and asserts the *shape* invariants the
// paper states, which must survive any well-formed POWER8-family
// configuration:
//
//   latency.plateaus   each present hierarchy level (L1, L2, local L3,
//                      chip L3, L4, DRAM) costs strictly more than the
//                      level above it;
//   bandwidth.threads  per-core STREAM bandwidth is monotone
//                      non-decreasing in threads per core;
//   bandwidth.chips    system STREAM bandwidth is monotone
//                      non-decreasing in active chips;
//   mix.2to1-peak      the 2:1 read:write mix beats every other probed
//                      mix (the Centaur 2-read+1-write link geometry);
//   noc.group-latency  remote memory costs more than local, and
//                      inter-group more than intra-group.
//
// Every machine's work — construction, the four analysis passes, the
// verdict pass — is submitted as ONE sim::TaskEngine graph, so a slow
// preset (the 192-core e880) overlaps the cheap ones instead of
// serializing behind them.  Analyses write disjoint MachineReport
// fields and the verdict task runs the checks in the canonical serial
// order, so the table, the JSON artifact and the stderr FAIL lines are
// bit-identical at any worker count (--threads).  --task-json dumps
// the graph's per-task timeline.
//
// One JSON artifact (--json) captures every number behind the
// verdicts.  Exit: 0 all invariants hold, 1 a violation, 2 bad
// configuration/flags.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "common/taskgraph.hpp"
#include "common/threading.hpp"
#include "ubench/workloads.hpp"

namespace {

using namespace p8;

using bench::Landmark;
using bench::Verdict;

struct MachineReport {
  std::string selector;
  std::string name;
  int total_cores = 0;
  std::vector<Landmark> marks;
  std::vector<double> latency_ns;
  std::vector<double> thread_gbs;
  std::vector<double> chip_gbs;
  std::vector<sim::RwMix> mixes;
  std::vector<double> mix_gbs;
  double local_ns = 0.0, intra_ns = 0.0, inter_ns = 0.0;
  double intra_gbs = 0.0, inter_gbs = 0.0;
  std::vector<Verdict> verdicts;
};

// Appends a verdict; the FAIL lines print after the whole graph has
// drained (main), in selector order, so stderr is deterministic at any
// worker count.
void check(MachineReport& r, const std::string& invariant, bool ok,
           const std::string& detail) {
  bench::add_check(r.verdicts, invariant, ok, detail);
}

// -------------------------------------------------------------------
// The analysis passes.  Each one runs as its own task in the engine
// graph and writes a disjoint slice of the MachineReport; the bodies
// use only the sequential workload paths (the engine is not
// re-entrant), which are bit-identical to the fanned ones by the sweep
// tests' determinism contract.
// -------------------------------------------------------------------

/// Fig. 2: latency at each hierarchy landmark (prefetch off).
void analyze_latency(MachineReport& r, const sim::Machine& machine) {
  r.marks = bench::hierarchy_landmarks(machine.hierarchy());
  std::vector<std::uint64_t> sizes;
  for (const Landmark& m : r.marks) sizes.push_back(m.bytes);
  for (const auto& point :
       ubench::memory_latency_scan(machine, sizes, 64 * 1024, /*dscr=*/1))
    r.latency_ns.push_back(point.latency_ns);
}

/// Fig. 3a/3b: threads per core on one core, then chip scaling with
/// all cores and threads (2:1 mix).
void analyze_bandwidth(MachineReport& r, const sim::Machine& machine,
                       const arch::SystemSpec& s) {
  const sim::RwMix mix21{2, 1};
  const int smt = s.processor.core.smt_threads;
  for (int t = 1; t <= smt; ++t)
    r.thread_gbs.push_back(machine.memory().stream_gbs(1, 1, t, mix21));
  for (int c = 1; c <= s.total_chips(); ++c)
    r.chip_gbs.push_back(
        machine.memory().stream_gbs(c, s.cores_per_chip, smt, mix21));
}

/// Table III: the paper's read:write mix column.
void analyze_mix(MachineReport& r, const sim::Machine& machine) {
  r.mixes = {{1, 0}, {16, 1}, {8, 1}, {4, 1}, {2, 1},
             {1, 1}, {1, 2},  {1, 4}, {0, 1}};
  for (std::size_t i = 0; i < r.mixes.size(); ++i)
    r.mix_gbs.push_back(machine.memory().system_stream_gbs(r.mixes[i]));
}

/// Table IV corner: local / intra-group / inter-group latency.
void analyze_noc(MachineReport& r, const sim::Machine& machine,
                 const arch::SystemSpec& s) {
  r.local_ns = machine.noc().memory_latency_ns(0, 0);
  if (s.total_chips() > 1) {
    r.intra_ns = machine.noc().memory_latency_ns(0, 1);
    r.intra_gbs = machine.noc().one_direction_gbs(0, 1);
  }
  if (s.groups() > 1) {
    const int partner = s.chips_per_group;  // chip 0's cross-midplane pair
    r.inter_ns = machine.noc().memory_latency_ns(0, partner);
    r.inter_gbs = machine.noc().one_direction_gbs(0, partner);
  }
}

/// The verdict pass: depends on all four analyses and replays the
/// checks in the canonical order, so r.verdicts is identical to what
/// the old serial interleaving produced.
void run_verdicts(MachineReport& r, const arch::SystemSpec& s) {
  for (std::size_t i = 1; i < r.marks.size(); ++i)
    check(r, "latency.plateaus",
          r.latency_ns[i] > r.latency_ns[i - 1],
          std::string(r.marks[i - 1].level) + "=" +
              common::fmt_num(r.latency_ns[i - 1], 1) + " ns vs " +
              r.marks[i].level + "=" + common::fmt_num(r.latency_ns[i], 1) +
              " ns");

  const int smt = s.processor.core.smt_threads;
  for (int t = 1; t < smt; ++t)
    check(r, "bandwidth.threads",
          r.thread_gbs[static_cast<std::size_t>(t)] >=
              r.thread_gbs[static_cast<std::size_t>(t) - 1],
          std::to_string(t) + "->" + std::to_string(t + 1) + " threads: " +
              common::fmt_num(r.thread_gbs[static_cast<std::size_t>(t) - 1],
                              1) +
              " -> " +
              common::fmt_num(r.thread_gbs[static_cast<std::size_t>(t)], 1) +
              " GB/s");

  for (std::size_t c = 1; c < r.chip_gbs.size(); ++c)
    check(r, "bandwidth.chips", r.chip_gbs[c] >= r.chip_gbs[c - 1],
          std::to_string(c) + "->" + std::to_string(c + 1) + " chips: " +
              common::fmt_num(r.chip_gbs[c - 1], 1) + " -> " +
              common::fmt_num(r.chip_gbs[c], 1) + " GB/s");

  // 2:1 must be the peak over the mixes the paper measured — both link
  // directions saturate together only at the Centaur 2-read:1-write
  // geometry.
  double best_gbs = 0.0;
  double gbs_2to1 = 0.0;
  for (std::size_t i = 0; i < r.mixes.size(); ++i) {
    best_gbs = std::max(best_gbs, r.mix_gbs[i]);
    if (r.mixes[i].read == 2.0 && r.mixes[i].write == 1.0)
      gbs_2to1 = r.mix_gbs[i];
  }
  check(r, "mix.2to1-peak", gbs_2to1 >= best_gbs,
        "2:1 gives " + common::fmt_num(gbs_2to1, 0) + " GB/s but the best " +
            "probed mix gives " + common::fmt_num(best_gbs, 0) + " GB/s");

  if (s.total_chips() > 1)
    check(r, "noc.group-latency", r.intra_ns > r.local_ns,
          "local " + common::fmt_num(r.local_ns, 0) + " ns vs intra-group " +
              common::fmt_num(r.intra_ns, 0) + " ns");
  if (s.groups() > 1)
    check(r, "noc.group-latency", r.inter_ns > r.intra_ns,
          "intra-group " + common::fmt_num(r.intra_ns, 0) +
              " ns vs inter-group " + common::fmt_num(r.inter_ns, 0) + " ns");
}

std::string report_json(const std::vector<MachineReport>& reports, bool ok) {
  std::string out = "{\n  \"all_ok\": ";
  out += ok ? "true" : "false";
  out += ",\n  \"machines\": [";
  for (std::size_t m = 0; m < reports.size(); ++m) {
    const MachineReport& r = reports[m];
    out += m == 0 ? "\n" : ",\n";
    out += "    {\n      \"machine\": " + common::json_quote(r.selector) +
           ",\n      \"name\": " + common::json_quote(r.name) +
           ",\n      \"latency\": [";
    for (std::size_t i = 0; i < r.marks.size(); ++i)
      out += std::string(i ? ", " : "") + "{\"level\": " +
             common::json_quote(r.marks[i].level) +
             ", \"bytes\": " + std::to_string(r.marks[i].bytes) +
             ", \"ns\": " + common::json_number(r.latency_ns[i]) + "}";
    out += "],\n      \"thread_gbs\": [";
    for (std::size_t i = 0; i < r.thread_gbs.size(); ++i)
      out += std::string(i ? ", " : "") + common::json_number(r.thread_gbs[i]);
    out += "],\n      \"chip_gbs\": [";
    for (std::size_t i = 0; i < r.chip_gbs.size(); ++i)
      out += std::string(i ? ", " : "") + common::json_number(r.chip_gbs[i]);
    out += "],\n      \"mix_gbs\": [";
    for (std::size_t i = 0; i < r.mixes.size(); ++i)
      out += std::string(i ? ", " : "") + "{\"read\": " +
             common::json_number(r.mixes[i].read) +
             ", \"write\": " + common::json_number(r.mixes[i].write) +
             ", \"gbs\": " + common::json_number(r.mix_gbs[i]) + "}";
    out += "],\n      \"noc\": {\"local_ns\": " +
           common::json_number(r.local_ns) +
           ", \"intra_ns\": " + common::json_number(r.intra_ns) +
           ", \"inter_ns\": " + common::json_number(r.inter_ns) +
           ", \"intra_gbs\": " + common::json_number(r.intra_gbs) +
           ", \"inter_gbs\": " + common::json_number(r.inter_gbs) +
           "},\n      \"invariants\": [";
    for (std::size_t i = 0; i < r.verdicts.size(); ++i)
      out += std::string(i ? ", " : "") + "{\"invariant\": " +
             common::json_quote(r.verdicts[i].invariant) +
             ", \"ok\": " + (r.verdicts[i].ok ? "true" : "false") + "}";
    out += "]\n    }";
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
      "json", "BENCH_scaling_matrix.json", "machine-readable output file");
  const std::optional<std::size_t> threads_opt = bench::threads_arg(args);
  const std::string task_json = bench::task_json_arg(args);
  const bool no_audit = bench::no_audit_arg(args);
  if (auto exit_code = bench::finish_args(args)) return *exit_code;
  if (!threads_opt) return 2;
  const std::size_t threads = *threads_opt;

  bench::print_header("Scaling matrix",
                      "paper shape invariants across machine configurations");

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

  // Load every spec and gate every audit serially up front — the
  // exit-2 path and the audit diagnostics keep their order — then
  // submit all machines into ONE task graph: per machine a
  // construction task fans into the four analysis passes, which feed a
  // verdict pass.  The engine schedules freely; the reports are
  // slot-indexed and every merge below walks them in selector order,
  // so the outputs are bit-identical at any --threads.
  struct Job {
    std::string selector;
    sim::MachineSpec spec;
    std::optional<sim::Machine> machine;
    MachineReport report;
  };
  std::vector<Job> jobs;
  for (const std::string& selector : selectors) {
    const auto spec = bench::load_machine(selector);
    if (!spec) return 2;
    if (!bench::gate_model(spec->machine(), no_audit)) return 2;
    jobs.push_back(Job{selector, *spec, std::nullopt, MachineReport{}});
  }

  common::TaskGraph graph;
  for (Job& job : jobs) {
    job.report.selector = job.selector;
    job.report.name = job.spec.system.name;
    job.report.total_cores = job.spec.system.total_cores();
    const common::TaskId build = graph.add(
        job.selector + ":build",
        [&job] { job.machine.emplace(job.spec.machine()); });
    const common::TaskId lat = graph.add(
        job.selector + ":latency",
        [&job] { analyze_latency(job.report, *job.machine); },
        {build});
    const common::TaskId bw = graph.add(
        job.selector + ":bandwidth",
        [&job] {
          analyze_bandwidth(job.report, *job.machine, job.spec.system);
        },
        {build});
    const common::TaskId mix = graph.add(
        job.selector + ":mix",
        [&job] { analyze_mix(job.report, *job.machine); }, {build});
    const common::TaskId noc = graph.add(
        job.selector + ":noc",
        [&job] { analyze_noc(job.report, *job.machine, job.spec.system); },
        {build});
    graph.add(job.selector + ":verdicts",
              [&job] { run_verdicts(job.report, job.spec.system); },
              {lat, bw, mix, noc});
  }

  common::ThreadPool pool(bench::pool_threads(threads));
  common::TaskEngine engine(pool);
  engine.run(graph);

  std::vector<MachineReport> reports;
  for (Job& job : jobs) {
    bench::print_failed(job.report.selector, job.report.verdicts);
    reports.push_back(std::move(job.report));
  }

  bool all_ok = true;
  common::TextTable t({"Machine", "cores", "DRAM (ns)", "peak mix (GB/s)",
                       "inter/intra (ns)", "invariants"});
  for (const MachineReport& r : reports) {
    const int failed = bench::failed_count(r.verdicts);
    all_ok = all_ok && failed == 0;
    t.add_row(
        {r.selector, std::to_string(r.total_cores),
         common::fmt_num(r.latency_ns.back(), 0),
         common::fmt_num(*std::max_element(r.mix_gbs.begin(), r.mix_gbs.end()),
                         0),
         r.inter_ns > 0.0 ? common::fmt_num(r.inter_ns, 0) + " / " +
                                common::fmt_num(r.intra_ns, 0)
                          : "n/a",
         failed == 0 ? "all hold"
                     : std::to_string(failed) + " FAILED"});
  }
  std::printf("%s\n", t.to_string().c_str());

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    const std::string body = report_json(reports, all_ok);
    std::fputs(body.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!bench::write_task_timeline(engine.timeline_json("scaling_matrix"),
                                  task_json))
    return 1;

  std::printf(all_ok ? "scaling matrix: all structural invariants hold\n"
                     : "scaling matrix: INVARIANT VIOLATIONS (see stderr)\n");
  return all_ok ? 0 : 1;
}
