// Regenerates Figure 10: all-pairs Jaccard similarity on R-MAT graphs —
// execution time and memory footprint vs scale.
//
// Host scaling note (DESIGN.md): the paper runs scales 17-23 on 64
// POWER8 cores with 8 TB of memory; this host runs scales 12..16 by
// default.  The shape to reproduce: superlinear growth of both time
// and output footprint, with the output dwarfing the input graph.
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
  const auto min_scale =
      bench::bounded_int_arg(args, "min-scale", 12, 1, 30, "first R-MAT scale");
  const auto max_scale =
      bench::bounded_int_arg(args, "max-scale", 16, 1, 30, "last R-MAT scale");
  const auto threads = bench::threads_arg(args);
  if (auto exit_code = bench::finish_args(args)) return *exit_code;
  if (!min_scale || !max_scale || !threads) return 2;

  bench::print_header("Figure 10",
                      "all-pairs Jaccard similarity on R-MAT graphs");

  common::ThreadPool pool(bench::pool_threads(*threads));
  common::TextTable t({"Scale", "Vertices", "Edges", "Input", "Output pairs",
                       "Output size", "Out/In", "Time (s)"});
  for (int scale = static_cast<int>(*min_scale); scale <= *max_scale;
       ++scale) {
    graph::RmatOptions opt;
    opt.scale = scale;
    opt.edge_factor = 16;  // the paper's average degree
    const graph::Graph g = graph::rmat_graph(opt);

    common::Timer timer;
    const jaccard::Result result = jaccard::all_pairs(g, pool);
    const double seconds = timer.seconds();

    const double in_bytes = static_cast<double>(g.adjacency.memory_bytes());
    t.add_row({std::to_string(scale), std::to_string(g.vertices()),
               std::to_string(g.edges()), common::fmt_bytes(in_bytes),
               std::to_string(result.similarities.nnz()),
               common::fmt_bytes(static_cast<double>(result.output_bytes)),
               common::fmt_num(result.output_bytes / in_bytes, 1),
               common::fmt_num(seconds, 2)});
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf("Paper shape: the output is substantially larger than the\n"
              "input and grows superlinearly with scale — the case for a\n"
              "large-memory SMP over a distributed implementation.\n");
  return 0;
}
