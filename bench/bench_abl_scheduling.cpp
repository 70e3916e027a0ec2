// Ablation: static vs dynamic task scheduling on a power-law workload
// — the setting behind the paper's §III-D remark that "dynamic
// scheduling of threads that execute small tasks" is a common pattern
// (and why DCBT matters for it).  On scale-free graphs the work per
// row of the Jaccard SpGEMM varies by orders of magnitude, so a
// static row split load-imbalances badly.
#include <cstdio>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/threading.hpp"
#include "common/timer.hpp"
#include "graph/rmat.hpp"
#include "jaccard/jaccard.hpp"

int main(int argc, char** argv) {
  using namespace p8;
  common::ArgParser args(argc, argv);
  const auto scale =
      bench::bounded_int_arg(args, "scale", 13, 1, 30, "R-MAT scale");
  const auto workers =
      bench::bounded_int_arg(args, "workers", 8, 1, 4096, "pool workers");
  if (auto exit_code = bench::finish_args(args)) return *exit_code;
  if (!scale || !workers) return 2;

  bench::print_header(
      "Ablation", "static vs dynamic scheduling of the Jaccard SpGEMM");

  graph::RmatOptions opt;
  opt.scale = static_cast<int>(*scale);
  opt.edge_factor = 16;
  const graph::Graph g = graph::rmat_graph(opt);
  common::ThreadPool pool(static_cast<std::size_t>(*workers));

  common::TextTable t({"Schedule", "chunk", "pairs evaluated",
                       "largest task vs even share", "time (s)"});
  struct Config {
    const char* name;
    bool dynamic;
    std::uint32_t chunk;
  };
  for (const Config& c :
       {Config{"static rows", false, 0}, Config{"dynamic", true, 1024},
        Config{"dynamic", true, 128}, Config{"dynamic", true, 16}}) {
    jaccard::Options jopt;
    jopt.dynamic_schedule = c.dynamic;
    if (c.chunk) jopt.row_chunk = c.chunk;
    common::Timer timer;
    const auto r = jaccard::all_pairs(g, pool, jopt);
    t.add_row({c.name, c.chunk ? std::to_string(c.chunk) : "n/P",
               std::to_string(r.pairs_evaluated),
               common::fmt_num(r.max_task_share, 2) + "x",
               common::fmt_num(timer.seconds(), 2)});
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf(
      "On a power-law graph the largest static partition carries several\n"
      "times the ideal share (hub rows do quadratic work); small dynamic\n"
      "chunks flatten it to ~1x.  On the E870's 512 threads that\n"
      "imbalance is the difference between using the machine and waiting\n"
      "on one core — the reason the paper's codes schedule dynamically\n"
      "and lean on DCBT to keep small tasks prefetched.\n");
  return 0;
}
