// `p8bench compare A/*.json B/*.json`: the landing rule, applied locally.
//
// For every workload x end-to-end metric it prints each side's median
// and quartiles, the share of same-seed pairs B wins, and a verdict under
// the metric's bound from BENCHMARK.json:
//
//   improved    B wins >= 90% of the pairs and the medians differ by more
//               than A's own quartile spread, in B's favour;
//   unresolved  either side's quartile spread, as a share of its median,
//               is wider than the bound (unless every B run beats every
//               A run);
//   worse       B's median is worse than A's by more than the bound;
//   no-worse    anything else.
//
// Quartiles follow Python's statistics.quantiles(n=4), the definition
// the benchmark's acceptance check uses.  Exit status is 1 when any row
// is worse, 2 on bad input.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "workloads.hpp"

namespace p8bench {

namespace {

using p8::common::Json;

struct Run {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::map<std::string, double> metrics;
};

/// statistics.quantiles(values, n=4) (the 'exclusive' method): q1, q2, q3.
std::vector<double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  if (n == 1) return {v[0], v[0], v[0]};
  std::vector<double> out;
  const long m = n + 1;
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    out.push_back((v[j - 1] * static_cast<double>(4 - delta) +
                   v[j] * static_cast<double>(delta)) /
                  4.0);
  }
  return out;
}

bool load_run(const std::string& path, Run& run) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  try {
    const Json doc = Json::parse(text.str());
    const Json* workload = doc.find("workload");
    const Json* metrics = doc.find("end_to_end");
    if (workload == nullptr || metrics == nullptr) return false;
    run.workload = workload->as_string("workload");
    if (const Json* seed = doc.find("seed")) run.seed = static_cast<std::uint64_t>(seed->number);
    const Json* t = doc.find("traced");
    run.traced = t != nullptr && t->is_bool() && t->boolean;
    for (const auto& [name, m] : metrics->object)
      if (const Json* v = m.find("value")) run.metrics[name] = v->number;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

}  // namespace

int compare_main(int argc, const char* const* argv) {
  // The sides are the files before and after a `--`, or else the files
  // of the first and second directory named (what `A/*.json B/*.json`
  // expands to).
  std::vector<std::string> sides[2];
  const std::vector<std::string> paths(argv, argv + argc);
  const auto split = std::find(paths.begin(), paths.end(), "--");
  if (split != paths.end()) {
    sides[0].assign(paths.begin(), split);
    sides[1].assign(split + 1, paths.end());
  } else {
    std::vector<std::string> dirs;
    for (const std::string& p : paths) {
      const std::string dir = std::filesystem::path(p).parent_path().string();
      if (std::find(dirs.begin(), dirs.end(), dir) == dirs.end()) dirs.push_back(dir);
      const std::size_t side = static_cast<std::size_t>(
          std::find(dirs.begin(), dirs.end(), dir) - dirs.begin());
      if (side < 2) sides[side].push_back(p);
    }
    if (dirs.size() != 2) sides[0].clear();
  }
  if (sides[0].empty() || sides[1].empty()) {
    std::fputs("usage: p8bench compare A/*.json B/*.json\n"
               "       p8bench compare A1.json A2.json -- B1.json B2.json\n",
               stderr);
    return 2;
  }
  const BenchmarkSpec spec = load_benchmark();

  // side -> workload -> runs (untraced only: traced runs carry per-layer
  // numbers, not the end-to-end ones the bounds apply to).
  std::map<std::string, std::vector<Run>> runs[2];
  for (int s = 0; s < 2; ++s)
    for (const std::string& path : sides[s]) {
      Run run;
      if (!load_run(path, run)) {
        std::fprintf(stderr, "p8bench compare: %s is not a p8bench result\n",
                     path.c_str());
        return 2;
      }
      if (!run.traced) runs[s][run.workload].push_back(run);
    }

  int worse = 0;
  std::printf("%-16s %-18s %26s %26s %7s %5s  %s\n", "workload", "metric",
              "A median [q1, q3]", "B median [q1, q3]", "change", "wins",
              "verdict");
  for (const auto& [workload, a_runs] : runs[0]) {
    const auto b_it = runs[1].find(workload);
    if (b_it == runs[1].end()) continue;
    const std::vector<Run>& b_runs = b_it->second;
    for (const MetricSpec& bound : spec.end_to_end) {
      std::vector<double> a, b;
      std::map<std::uint64_t, double> a_by_seed;
      for (const Run& r : a_runs)
        if (r.metrics.count(bound.name)) {
          a.push_back(r.metrics.at(bound.name));
          a_by_seed[r.seed] = a.back();
        }
      std::vector<std::pair<double, double>> pairs;
      for (const Run& r : b_runs)
        if (r.metrics.count(bound.name)) {
          b.push_back(r.metrics.at(bound.name));
          const auto twin = a_by_seed.find(r.seed);
          if (twin != a_by_seed.end()) pairs.emplace_back(twin->second, b.back());
        }
      if (a.empty() || b.empty()) continue;
      if (pairs.empty())
        for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
          pairs.emplace_back(a[i], b[i]);

      const std::vector<double> qa = quartiles(a), qb = quartiles(b);
      // Signed so that positive means "B is better".
      const auto gain = [&](double from, double to) {
        return bound.higher_is_better ? to - from : from - to;
      };
      std::size_t wins = 0;
      for (const auto& [x, y] : pairs) wins += gain(x, y) > 0.0 ? 1 : 0;
      const double win_share =
          static_cast<double>(wins) / static_cast<double>(pairs.size());
      const double delta = gain(qa[1], qb[1]);
      const double spread_a = qa[1] != 0.0 ? (qa[2] - qa[0]) / std::abs(qa[1]) : 0.0;
      const double spread_b = qb[1] != 0.0 ? (qb[2] - qb[0]) / std::abs(qb[1]) : 0.0;
      const auto [a_lo, a_hi] = std::minmax_element(a.begin(), a.end());
      const auto [b_lo, b_hi] = std::minmax_element(b.begin(), b.end());
      const bool b_always_better = bound.higher_is_better ? *b_lo > *a_hi : *b_hi < *a_lo;
      std::string verdict;
      if (win_share >= 0.9 && delta > (qa[2] - qa[0])) {
        verdict = "improved";
      } else if ((spread_a > bound.bound || spread_b > bound.bound) &&
                 !b_always_better) {
        verdict = "unresolved";
      } else if (-delta > bound.bound * std::abs(qa[1])) {
        verdict = "worse";
        ++worse;
      } else {
        verdict = "no-worse";
      }
      const double change = qa[1] != 0.0 ? (qb[1] - qa[1]) / std::abs(qa[1]) : 0.0;
      std::printf("%-16s %-18s %26s %26s %+6.1f%% %4.0f%%  %s\n", workload.c_str(),
                  bound.name.c_str(),
                  (fmt(qa[1]) + " [" + fmt(qa[0]) + ", " + fmt(qa[2]) + "]").c_str(),
                  (fmt(qb[1]) + " [" + fmt(qb[0]) + ", " + fmt(qb[2]) + "]").c_str(),
                  change * 100.0, win_share * 100.0, verdict.c_str());
    }
  }
  std::printf("%d row(s) worse\n", worse);
  return worse > 0 ? 1 : 0;
}

}  // namespace p8bench
