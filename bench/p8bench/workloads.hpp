// The p8bench workload registry.  Each workload sets itself up many
// times (reporting the median set-up time), measures for the requested
// number of seconds, checks its outputs against oracles and, when
// traced, derives the per-layer metrics.
#pragma once

#include <string>
#include <vector>

#include "common/timer.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace p8bench {

struct Workload {
  const char* name;
  const char* why;
  const char* loop;  ///< closed loop / sweep, with its concurrency
  const char* size;  ///< what one measured unit of work is
  Outcome (*run)(const Options& options, SpanRecorder* spans);
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Set-up repeats at least this many times and for at least this long,
/// so the median set-up time rests on many samples even where one set-up
/// takes a millisecond.
inline constexpr std::size_t kSetupReps = 9;
inline constexpr double kSetupSeconds = 0.5;

/// Builds the workload's state with `make()` (which returns a
/// std::unique_ptr) at least kSetupReps times and for at least
/// kSetupSeconds, timing each build into `seconds`; returns the last
/// state.  Each state is destroyed before the
/// next is built, so only one is ever live.
template <typename Make>
auto set_up(Make&& make, std::vector<double>& seconds) {
  decltype(make()) state;
  const p8::common::Timer total;
  while (seconds.size() < kSetupReps || total.seconds() < kSetupSeconds) {
    state.reset();
    const p8::common::Timer t;
    state = make();
    seconds.push_back(t.seconds());
  }
  return state;
}

Outcome run_chase_sweep(const Options& options, SpanRecorder* spans);
Outcome run_prefetch_replay(const Options& options, SpanRecorder* spans);
Outcome run_serve_analytic(const Options& options, SpanRecorder* spans);
Outcome run_serve_sim_mix(const Options& options, SpanRecorder* spans);

/// `p8bench compare`: argv after the subcommand.
int compare_main(int argc, const char* const* argv);

}  // namespace p8bench
