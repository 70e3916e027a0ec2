// Regenerates Figure 2: observed memory read latency vs working-set
// size on the E870, for regular (64 KB) and huge (16 MB) pages, with
// hardware prefetching disabled — the lmbench lat_mem_rd experiment
// replayed against the cache/TLB simulator.
//
// Expected shape (paper): plateaus for L1/L2/L3, a shelf for remote-L3
// (NUCA victim) hits, an L4 shoulder that saves >30 ns over DRAM, and
// a small 64 KB-page spike near 3-6 MB where the 48-entry ERAT runs
// out (absent with 16 MB pages).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "ubench/workloads.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  common::ArgParser args(argc, argv);
  const auto max_mb_opt = bench::bounded_int_arg(
      args, "max-mb", 512, 1, 1 << 20, "largest working set in MiB");
  const std::string counters_path = bench::counters_path_arg(args);
  const bool no_audit = bench::no_audit_arg(args);
  const std::string machine_sel = bench::machine_arg(args);
  if (auto exit_code = bench::finish_args(args)) return *exit_code;
  if (!max_mb_opt) return 2;
  const auto max_mb = static_cast<std::uint64_t>(*max_mb_opt);

  bench::print_header("Figure 2",
                      "memory read latency vs working set (prefetch off)");

  const auto machine_spec = bench::load_machine(machine_sel);
  if (!machine_spec) return 2;
  const sim::Machine machine = machine_spec->machine();

  std::vector<std::uint64_t> sizes;
  for (std::uint64_t ws = common::kib(16); ws <= common::mib(max_mb);) {
    sizes.push_back(ws);
    // 4 points per octave below 16 MB (to resolve the plateaus and the
    // ERAT spike), 2 per octave above.
    ws += ws / (ws < common::mib(16) ? 4 : 2);
  }

  // Both page-size scans fan out over one pool; results come back in
  // working-set order, bit-identical to the sequential loop.
  sim::CounterRegistry counters;
  sim::CounterRegistry* reg = counters_path.empty() ? nullptr : &counters;
  sim::SweepRunner runner;
  if (!bench::gate_model(machine, runner, no_audit)) return 2;
  const auto regular = ubench::memory_latency_scan(machine, sizes, 64 * 1024,
                                                   /*dscr=*/1, runner, reg);
  const auto huge = ubench::memory_latency_scan(machine, sizes, 16ull << 20,
                                                /*dscr=*/1, runner, reg);

  common::TextTable t(
      {"Working set", "64 KB pages (ns)", "16 MB pages (ns)", "profile"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const int bars = static_cast<int>(regular[i].latency_ns / 2.5);
    t.add_row({common::fmt_bytes(static_cast<double>(sizes[i])),
               common::fmt_num(regular[i].latency_ns, 1),
               common::fmt_num(huge[i].latency_ns, 1),
               std::string(static_cast<std::size_t>(bars), '#')});
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf(
      "Landmarks: L1<=64KB, L2<=512KB, local L3<=8MB, remote-L3 shelf to\n"
      "64MB, L4 shoulder to 128MB, DRAM beyond.  The 64KB-page column\n"
      "should exceed the 16MB-page column around 3-6MB (ERAT reach = 48 x\n"
      "64KB = 3MB) — the paper's 'small spike at the 3MB data point'.\n");
  return bench::write_counters(counters, counters_path, "fig2") ? 0 : 1;
}
