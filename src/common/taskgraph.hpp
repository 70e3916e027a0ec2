// Per-task timing records of a parallel sweep, and their JSON artifact.
//
// SweepRunner (sim/machine/sweep.hpp) records one TaskRecord per sweep
// point: its name, the worker that ran it, its start/end on the run's
// clock, whether it ran off its owner's share, and whether it was
// skipped because an earlier point threw.  timeline_json() renders
// records as the document the benches' --task-json flag writes, for
// plotting Gantt-style (EXPERIMENTS.md).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace p8::common {

/// What a sweep remembers about one of its points.
struct TaskRecord {
  std::string name;
  std::size_t worker = 0;   ///< worker that ran (or skipped) the point
  double start_s = 0.0;     ///< seconds since the run started
  double end_s = 0.0;
  bool stolen = false;      ///< ran off its owner worker's share
  bool cancelled = false;   ///< skipped because an earlier point threw
};

/// How many of `records` ran off their owner's share.
std::size_t count_stolen(const std::vector<TaskRecord>& records);

/// The records as a deterministic-layout JSON document, `steals` their
/// count_stolen():
///   {"bench": ..., "workers": W, "tasks": N, "steals": S,
///    "wall_s": ..., "timeline": [{"name", "worker", "start_s",
///    "end_s", "stolen", "cancelled"}, ...]}
std::string timeline_json(const std::string& bench, std::size_t workers,
                          const std::vector<TaskRecord>& records,
                          double wall_s);

}  // namespace p8::common
