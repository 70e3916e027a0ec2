// Deterministic parallel sweep runner.
//
// Every figure/table bench replays millions of simulated accesses per
// sweep point (working-set sizes for Fig. 2, DSCR depths for Fig. 6,
// strides for Fig. 7, block sizes for Fig. 8).  The points are
// independent — each builds its own LatencyProbe / RNG from its index
// — so the sweep is embarrassingly parallel.  SweepRunner hands the
// points out over a common::ThreadPool itself (the owner-first claim
// on run() below) and returns results in submission order, making the
// parallel sweep bit-identical to the sequential loop regardless of
// thread count or OS scheduling.  Benches with dependent phases (build
// the machines, then measure them) run one sweep per phase — see
// bench_scaling_matrix and docs/PERF.md.
//
// The contract the caller must honour for that guarantee: the point
// function may read shared state (a const Machine&) but must derive
// all mutable state — probes, seeds, scratch — from its index alone.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/taskgraph.hpp"
#include "common/threading.hpp"
#include "sim/audit.hpp"
#include "sim/counters.hpp"

namespace p8::sim {

class SweepRunner {
 public:
  /// Owns a fresh pool; `threads == 0` means one worker per hardware
  /// thread.
  explicit SweepRunner(std::size_t threads = 0);

  /// Borrows `pool` (not owned; must outlive the runner).
  explicit SweepRunner(common::ThreadPool& pool);

  std::size_t threads() const { return pool_->size(); }
  common::ThreadPool& pool() { return *pool_; }

  /// Attaches the ModelAudit verdict of the machine this sweep's
  /// points simulate.  A report carrying errors makes every
  /// subsequent run()/map()/run_counted() throw std::runtime_error
  /// with the diagnostics — millions of simulated accesses against a
  /// structurally wrong model are worse than no run at all.  Passing
  /// a clean report clears any earlier failed one.
  void gate_on_audit(const AuditReport& report);

  /// --no-audit: clears an attached failing audit, letting the sweep
  /// run anyway (deliberate counterfactual / debugging runs).
  void waive_audit() { audit_failure_.clear(); }

  /// Names the tasks the next run()/map()/run_counted() submits (the
  /// label shows up in the timing timeline as "<label>#<index>").
  void set_task_label(std::string label) { task_label_ = std::move(label); }

  /// Per-point timing records of the most recent run (task name,
  /// executing worker, start/end, steal flag) — the raw material for
  /// the task-timeline JSON artifact (docs/PERF.md).
  const std::vector<common::TaskRecord>& last_timeline() const {
    return last_timeline_;
  }

  /// Points of the most recent run that ran off their owner's share.
  std::size_t last_steals() const {
    return common::count_stolen(last_timeline_);
  }

  /// Evaluates `point(i)` for every i in [0, points) across the pool
  /// and returns the results in submission order.  Owner-first claim:
  /// point i belongs to worker i % W, each worker runs its own share
  /// from its last index down, then claims whatever is left, largest
  /// index first.  A sweep that lists its points cheapest first thus
  /// starts the heaviest first, on distinct workers, and a point
  /// mostly runs on the same thread from one run to the next.  After a
  /// point throws no further point starts (the rest are recorded
  /// cancelled); the first exception is rethrown here once the started
  /// points finish.
  template <typename Fn>
  auto run(std::size_t points, Fn&& point)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using Result = std::invoke_result_t<Fn&, std::size_t>;
    P8_STATIC_REQUIRE(std::is_default_constructible_v<Result>,
                      "sweep results must be default-constructible");
    // Workers write distinct slots concurrently; std::vector<bool>
    // packs neighbouring slots into one shared word.
    P8_STATIC_REQUIRE((!std::is_same_v<Result, bool>),
                      "sweep results must not be bool (vector<bool> slots "
                      "share words across workers)");
    check_audit();
    std::vector<Result> out(points);
    auto body = [&out, &point](std::size_t i) { out[i] = point(i); };
    using Body = decltype(body);
    schedule(points,
             [](void* ctx, std::size_t i) { (*static_cast<Body*>(ctx))(i); },
             &body);
    return out;
  }

  /// run() over an explicit grid: `point(grid[i], i)` for each element,
  /// results in grid order.
  template <typename T, typename Fn>
  auto map(const std::vector<T>& grid, Fn&& point)
      -> std::vector<std::invoke_result_t<Fn&, const T&, std::size_t>> {
    return run(grid.size(),
               [&](std::size_t i) { return point(grid[i], i); });
  }

  /// run() with counter collection: `point(i, registry)` gets a
  /// private CounterRegistry per sweep point, and after the parallel
  /// run every per-point registry is merged into `into` in index
  /// order.  Because each point's registry is private (no cross-thread
  /// sharing) and the merge order is the submission order — never the
  /// completion order — the merged totals are identical for any worker
  /// count, including 1.  Pass `into == nullptr` to run with counting
  /// disabled (the point function receives nullptr, so probes attach
  /// nothing and the sweep behaves exactly like run()).
  template <typename Fn>
  auto run_counted(std::size_t points, CounterRegistry* into, Fn&& point)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t,
                                          CounterRegistry*>> {
    if (into == nullptr)
      return run(points, [&](std::size_t i) { return point(i, nullptr); });
    std::vector<CounterRegistry> local(points);
    auto out =
        run(points, [&](std::size_t i) { return point(i, &local[i]); });
    for (auto& registry : local) into->merge(registry);
    return out;
  }

 private:
  /// Throws when a failed audit is attached and unwaived.  map() and
  /// run_counted() funnel through run(), so this one check gates every
  /// entry point.
  void check_audit() const;

  /// Runs `fn(ctx, i)` for every i in [0, points) under the
  /// owner-first claim and records the timeline.
  void schedule(std::size_t points, void (*fn)(void*, std::size_t),
                void* ctx);

  std::unique_ptr<common::ThreadPool> owned_;
  common::ThreadPool* pool_;
  /// Formatted diagnostics of an attached failing audit; empty = runnable.
  std::string audit_failure_;
  std::string task_label_ = "sweep";
  std::vector<common::TaskRecord> last_timeline_;
};

}  // namespace p8::sim
