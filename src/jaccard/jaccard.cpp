#include "jaccard/jaccard.hpp"

#include <algorithm>
#include <atomic>

#include "common/error.hpp"

namespace p8::jaccard {

double pair_similarity(const graph::Graph& g, std::uint32_t i,
                       std::uint32_t j) {
  P8_REQUIRE(i < g.vertices() && j < g.vertices(), "vertex out of range");
  const auto a = g.neighbors(i);
  const auto b = g.neighbors(j);
  std::size_t ka = 0;
  std::size_t kb = 0;
  std::uint64_t common = 0;
  while (ka < a.size() && kb < b.size()) {
    if (a[ka] < b[kb]) ++ka;
    else if (a[ka] > b[kb]) ++kb;
    else {
      ++common;
      ++ka;
      ++kb;
    }
  }
  const std::uint64_t uni = a.size() + b.size() - common;
  return uni == 0 ? 0.0 : static_cast<double>(common) / static_cast<double>(uni);
}

Result all_pairs(const graph::Graph& g, common::ThreadPool& pool,
                 const Options& options) {
  const std::uint32_t n = g.vertices();

  // Per-worker SPA state and output buffer.
  struct Workspace {
    std::vector<std::uint32_t> counts;   // SPA: common-neighbor counts
    std::vector<std::uint32_t> touched;  // indices dirty in `counts`
    std::vector<graph::Triplet> out;
    std::uint64_t pairs = 0;
    std::uint64_t max_task_pairs = 0;
  };
  std::vector<Workspace> spaces(pool.size());
  for (auto& w : spaces) w.counts.assign(n, 0);

  // Worker-id bookkeeping: run_on_all gives us the id; the dynamic
  // chunking comes from a shared row cursor.
  std::atomic<std::uint32_t> next_row{0};
  const std::uint32_t chunk = std::max(options.row_chunk, 1u);

  pool.run_on_all([&](std::size_t worker) {
    Workspace& ws = spaces[worker];
    auto process_rows = [&](std::uint32_t lo, std::uint32_t hi) {
      const std::uint64_t pairs_before = ws.pairs;
      for (std::uint32_t i = lo; i < hi; ++i) {
        // Row i of A^2 restricted to candidates: expand neighbors'
        // adjacency into the SPA.
        for (const std::uint32_t mid : g.neighbors(i)) {
          for (const std::uint32_t j : g.neighbors(mid)) {
            if (j <= i) continue;
            if (ws.counts[j]++ == 0) ws.touched.push_back(j);
          }
        }
        ws.pairs += ws.touched.size();
        const double deg_i = static_cast<double>(g.degree(i));
        for (const std::uint32_t j : ws.touched) {
          const double common = static_cast<double>(ws.counts[j]);
          ws.counts[j] = 0;
          const double uni =
              deg_i + static_cast<double>(g.degree(j)) - common;
          const double sim = uni > 0 ? common / uni : 0.0;
          if (sim >= options.min_similarity && sim > 0.0)
            ws.out.push_back({i, j, sim});
        }
        ws.touched.clear();
      }
      ws.max_task_pairs =
          std::max(ws.max_task_pairs, ws.pairs - pairs_before);
    };

    if (!options.dynamic_schedule) {
      // Naive static split by row count — the ablation baseline.
      const auto [lo, hi] = pool.static_range(0, n, worker);
      process_rows(static_cast<std::uint32_t>(lo),
                   static_cast<std::uint32_t>(hi));
      return;
    }
    for (;;) {
      // p8lint: allow(conc-weak-atomic) ticket counter: each row chunk claimed once; merge after join
      const std::uint32_t lo = next_row.fetch_add(chunk, std::memory_order_relaxed);
      if (lo >= n) break;
      process_rows(lo, std::min(lo + chunk, n));
    }
  });

  // Merge worker outputs.
  std::size_t total = 0;
  for (const auto& w : spaces) total += w.out.size();
  std::vector<graph::Triplet> merged;
  merged.reserve(total);
  for (auto& w : spaces) {
    merged.insert(merged.end(), w.out.begin(), w.out.end());
    w.out.clear();
    w.out.shrink_to_fit();
  }

  Result result;
  result.similarities = graph::CsrMatrix::from_triplets(n, n, std::move(merged));
  result.output_bytes = result.similarities.memory_bytes();
  std::uint64_t heaviest_task = 0;
  for (const auto& w : spaces) {
    result.pairs_evaluated += w.pairs;
    heaviest_task = std::max(heaviest_task, w.max_task_pairs);
  }
  if (result.pairs_evaluated > 0)
    result.max_task_share =
        static_cast<double>(heaviest_task) /
        (static_cast<double>(result.pairs_evaluated) /
         static_cast<double>(pool.size()));
  return result;
}

}  // namespace p8::jaccard
