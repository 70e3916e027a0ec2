// Tests for the parallel sweep runner: SweepRunner output must be
// bit-identical to the sequential loop for the Fig. 2 and Fig. 7 sweep
// configurations and its merged counters identical across 1/2/4/7
// workers; its owner-first claim starts each worker on its share's
// last point, records every point run off its owner's share as a
// steal, and stops starting points after one throws; its timeline
// renders to schema-stable JSON.  The ThreadPool fork-join primitives
// it builds on must propagate exceptions and combine reductions in
// worker order.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/taskgraph.hpp"
#include "common/threading.hpp"
#include "common/units.hpp"
#include "arch/spec.hpp"
#include "sim/audit.hpp"
#include "sim/counters.hpp"
#include "sim/machine/sweep.hpp"
#include "ubench/workloads.hpp"

namespace p8 {
namespace {

TEST(Sweep, Fig2ScanBitIdenticalToSequential) {
  const sim::Machine machine = sim::Machine(arch::e870());
  // A reduced Fig. 2 grid (16 KB .. 4 MB) covering L1/L2/L3 and the
  // ERAT spike region, for both page sizes.
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t ws = common::kib(16); ws <= common::mib(4); ws += ws / 2)
    sizes.push_back(ws);

  for (const std::uint64_t page :
       {std::uint64_t{64} * 1024, std::uint64_t{16} << 20}) {
    const auto seq =
        ubench::memory_latency_scan(machine, sizes, page, /*dscr=*/1);
    sim::SweepRunner runner(4);
    const auto par =
        ubench::memory_latency_scan(machine, sizes, page, /*dscr=*/1, runner);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(seq[i].working_set_bytes, par[i].working_set_bytes);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(seq[i].latency_ns, par[i].latency_ns) << "point " << i;
    }
  }
}

TEST(Sweep, Fig7StrideGridBitIdenticalToSequential) {
  const sim::Machine machine = sim::Machine(arch::e870());
  auto point = [&](std::size_t i) {
    ubench::StrideOptions opt;
    opt.dscr = 2 + static_cast<int>(i / 2);
    opt.stride_n = (i % 2) != 0;
    opt.accesses = 20000;  // reduced grid, same structure as the bench
    return ubench::stride_latency_ns(machine, opt);
  };

  std::vector<double> seq;
  for (std::size_t i = 0; i < 12; ++i) seq.push_back(point(i));

  sim::SweepRunner runner(3);
  const auto par = runner.run(12, point);
  ASSERT_EQ(par.size(), seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i)
    EXPECT_EQ(seq[i], par[i]) << "point " << i;
}

TEST(Sweep, RepeatedRunsAreIdentical) {
  const sim::Machine machine = sim::Machine(arch::e870());
  auto point = [&](std::size_t i) {
    ubench::ChaseOptions opt;
    opt.working_set_bytes = common::kib(64) << i;
    return ubench::chase_latency_ns(machine, opt);
  };
  sim::SweepRunner a(4);
  sim::SweepRunner b(2);
  EXPECT_EQ(a.run(4, point), b.run(4, point));
}

TEST(Sweep, MapPassesGridValuesInOrder) {
  sim::SweepRunner runner(4);
  const std::vector<int> grid = {3, 1, 4, 1, 5, 9, 2, 6};
  const auto out = runner.map(
      grid, [](int v, std::size_t i) { return v * 10 + static_cast<int>(i); });
  ASSERT_EQ(out.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_EQ(out[i], grid[i] * 10 + static_cast<int>(i));
}

TEST(Sweep, BorrowedPoolIsShared) {
  common::ThreadPool pool(2);
  sim::SweepRunner runner(pool);
  EXPECT_EQ(runner.threads(), 2u);
  EXPECT_EQ(&runner.pool(), &pool);
}

TEST(Sweep, FailedAuditGatesEveryEntryPoint) {
  sim::AuditReport failed;
  failed.add(sim::AuditSeverity::kError, "hierarchy.latency-order",
             "inverted for the test");

  sim::SweepRunner runner(2);
  runner.gate_on_audit(failed);
  auto point = [](std::size_t i) { return static_cast<double>(i); };
  EXPECT_THROW(runner.run(4, point), std::runtime_error);
  // map() and run_counted() funnel through the same gate.
  const std::vector<int> grid = {1, 2, 3};
  EXPECT_THROW(runner.map(grid, [](int v, std::size_t) { return v; }),
               std::runtime_error);

  // The thrown message must carry the diagnostics, so the user sees
  // *why* the sweep refused to start.
  try {
    runner.run(1, point);
    FAIL() << "gated run() did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("hierarchy.latency-order"),
              std::string::npos);
  }
}

TEST(Sweep, WaiveAuditClearsTheGate) {
  sim::AuditReport failed;
  failed.add(sim::AuditSeverity::kError, "mem.link-ratio", "1:1 for the test");
  sim::SweepRunner runner(2);
  runner.gate_on_audit(failed);
  runner.waive_audit();
  auto point = [](std::size_t i) { return static_cast<double>(i); };
  EXPECT_EQ(runner.run(3, point), (std::vector<double>{0.0, 1.0, 2.0}));
}

TEST(Sweep, CleanAuditReplacesAFailedOne) {
  sim::AuditReport failed;
  failed.add(sim::AuditSeverity::kError, "noc.latency", "negative");
  sim::SweepRunner runner(2);
  runner.gate_on_audit(failed);
  runner.gate_on_audit(sim::AuditReport{});  // re-audit came back clean
  auto point = [](std::size_t i) { return static_cast<double>(i); };
  EXPECT_NO_THROW(runner.run(2, point));
}

TEST(Sweep, WarningOnlyAuditDoesNotGate) {
  sim::AuditReport warnings;
  warnings.add(sim::AuditSeverity::kWarning, "system.clock", "10 GHz");
  sim::SweepRunner runner(2);
  runner.gate_on_audit(warnings);
  auto point = [](std::size_t i) { return static_cast<double>(i); };
  EXPECT_NO_THROW(runner.run(2, point));
}

ubench::ChaseOptions small_chase(std::size_t i) {
  ubench::ChaseOptions opt;
  opt.working_set_bytes = common::kib(32) << (i % 4);
  opt.warm_accesses = 4096;
  opt.measure_accesses = 20000;
  opt.seed = 42 + i;
  return opt;
}

TEST(Sweep, CounterMergeBitIdenticalAcross1_2_4_7Workers) {
  const sim::Machine machine = sim::Machine(arch::e870());
  const std::size_t points = 9;

  // Serial reference: private registries merged in submission order.
  sim::CounterRegistry serial;
  std::vector<double> serial_lat;
  for (std::size_t i = 0; i < points; ++i) {
    sim::CounterRegistry local;
    ubench::ChaseOptions opt = small_chase(i);
    opt.counters = &local;
    serial_lat.push_back(ubench::chase_latency_ns(machine, opt));
    serial.merge(local);
  }

  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{7}}) {
    sim::SweepRunner runner(workers);
    sim::CounterRegistry merged;
    const auto lat = runner.run_counted(
        points, &merged, [&](std::size_t i, sim::CounterRegistry* registry) {
          ubench::ChaseOptions opt = small_chase(i);
          opt.counters = registry;
          return ubench::chase_latency_ns(machine, opt);
        });
    ASSERT_EQ(lat.size(), serial_lat.size());
    for (std::size_t i = 0; i < points; ++i)
      EXPECT_EQ(lat[i], serial_lat[i]) << "point " << i << ", " << workers
                                       << " workers";
    // Bit-identical merged counters, snapshot and rendered form.
    EXPECT_EQ(merged.snapshot(), serial.snapshot()) << workers << " workers";
    EXPECT_EQ(merged.to_csv(), serial.to_csv()) << workers << " workers";
  }
}

TEST(Sweep, RunnerRecordsATimelinePerSweep) {
  sim::SweepRunner runner(2);
  runner.set_task_label("unit.point");
  const auto out =
      runner.run(5, [](std::size_t i) { return static_cast<double>(i * i); });
  EXPECT_EQ(out, (std::vector<double>{0.0, 1.0, 4.0, 9.0, 16.0}));
  ASSERT_EQ(runner.last_timeline().size(), 5u);
  EXPECT_EQ(runner.last_timeline()[0].name, "unit.point#0");
  EXPECT_EQ(runner.last_timeline()[4].name, "unit.point#4");
  for (const common::TaskRecord& r : runner.last_timeline()) {
    EXPECT_LT(r.worker, 2u);
    EXPECT_GE(r.start_s, 0.0);
    EXPECT_GE(r.end_s, r.start_s);
    EXPECT_FALSE(r.cancelled);
  }
  // An empty sweep is a no-op with an empty timeline.
  EXPECT_TRUE(runner.run(0, [](std::size_t) { return 0; }).empty());
  EXPECT_TRUE(runner.last_timeline().empty());
}

TEST(Sweep, TimelineJsonMatchesSchema) {
  sim::SweepRunner runner(3);
  runner.set_task_label("scan \"quoted\"");
  runner.run(2, [](std::size_t i) { return i; });
  const common::Json doc = common::Json::parse(common::timeline_json(
      "unit", runner.threads(), runner.last_timeline(), 0.5));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("bench")->as_string("bench"), "unit");
  EXPECT_EQ(doc.find("workers")->as_number("workers"), 3.0);
  EXPECT_EQ(doc.find("tasks")->as_number("tasks"), 2.0);
  EXPECT_EQ(doc.find("steals")->as_number("steals"),
            static_cast<double>(runner.last_steals()));
  EXPECT_EQ(doc.find("wall_s")->as_number("wall_s"), 0.5);
  const common::Json* timeline = doc.find("timeline");
  ASSERT_NE(timeline, nullptr);
  ASSERT_TRUE(timeline->is_array());
  ASSERT_EQ(timeline->array.size(), 2u);
  for (const common::Json& entry : timeline->array) {
    ASSERT_TRUE(entry.is_object());
    for (const char* key :
         {"name", "worker", "start_s", "end_s", "stolen", "cancelled"})
      EXPECT_NE(entry.find(key), nullptr) << key;
    EXPECT_GE(entry.find("end_s")->as_number("end_s"),
              entry.find("start_s")->as_number("start_s"));
    EXPECT_LT(entry.find("worker")->as_number("worker"),
              doc.find("workers")->as_number("workers"));
    EXPECT_FALSE(entry.find("cancelled")->as_bool("cancelled"));
  }
  EXPECT_EQ(timeline->array[0].find("name")->as_string("name"),
            "scan \"quoted\"#0");
}

TEST(Sweep, EachWorkerStartsAtItsSharesLastPoint) {
  // One worker runs its whole share, n-1 down to 0, in order.
  sim::SweepRunner serial(1);
  std::vector<std::size_t> order;
  serial.run(6, [&](std::size_t i) {
    order.push_back(i);
    return i;
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{5, 4, 3, 2, 1, 0}));
  EXPECT_EQ(serial.last_steals(), 0u);

  // Point i belongs to worker i % W, and the top W indices are the
  // shares' last points.  Each of those waits until all W have
  // started, so no worker can finish its share and help before every
  // worker has made its first claim.
  const std::size_t workers = 4;
  const std::size_t points = 14;
  sim::SweepRunner runner(workers);
  std::atomic<std::size_t> arrived{0};
  runner.run(points, [&](std::size_t i) {
    if (i >= points - workers) {
      arrived.fetch_add(1);
      while (arrived.load() < workers) std::this_thread::yield();
    }
    return i;
  });
  const auto& timeline = runner.last_timeline();
  for (std::size_t w = 0; w < workers; ++w) {
    std::size_t first = points;
    for (std::size_t i = 0; i < points; ++i)
      if (timeline[i].worker == w &&
          (first == points || timeline[i].start_s < timeline[first].start_s))
        first = i;
    ASSERT_LT(first, points) << "worker " << w << " ran nothing";
    EXPECT_EQ(first % workers, w) << "worker " << w;
    EXPECT_GE(first, points - workers) << "worker " << w;
    EXPECT_FALSE(timeline[first].stolen);
  }
}

TEST(Sweep, StolenPointsSumToLastSteals) {
  // Share 0 is {0, 4, 8, 12}.  Its first point to start waits until
  // another share-0 point has finished, which only another worker can
  // run: at least one point runs off its owner's share.
  const std::size_t workers = 4;
  const std::size_t points = 16;
  sim::SweepRunner runner(workers);
  std::atomic<std::size_t> share0_done{0};
  std::atomic<bool> waiter_taken{false};
  for (int rep = 0; rep < 3; ++rep) {
    share0_done.store(0);
    waiter_taken.store(false);
    const auto out = runner.run(points, [&](std::size_t i) {
      if (i % workers == 0) {
        if (!waiter_taken.exchange(true))
          while (share0_done.load() == 0) std::this_thread::yield();
        share0_done.fetch_add(1);
      }
      return i;
    });
    ASSERT_EQ(out.size(), points);
    std::size_t stolen = 0;
    for (std::size_t i = 0; i < points; ++i) {
      const common::TaskRecord& r = runner.last_timeline()[i];
      EXPECT_EQ(r.stolen, r.worker != i % workers) << "point " << i;
      stolen += r.stolen ? 1 : 0;
    }
    EXPECT_EQ(stolen, runner.last_steals());
    EXPECT_GE(runner.last_steals(), 1u);
  }
}

TEST(Sweep, ThrowingPointCancelsUnstartedPointsAndRunnerStaysReusable) {
  // One worker runs 9..0: 9..6 run, 5 throws, 4..0 never start.
  sim::SweepRunner serial(1);
  std::vector<std::size_t> ran;
  EXPECT_THROW(serial.run(10,
                          [&](std::size_t i) {
                            ran.push_back(i);
                            if (i == 5) throw std::invalid_argument("point 5");
                            return i;
                          }),
               std::invalid_argument);
  EXPECT_EQ(ran, (std::vector<std::size_t>{9, 8, 7, 6, 5}));
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(serial.last_timeline()[i].cancelled, i < 5) << "point " << i;

  // At any width: the first exception reaches the caller, a cancelled
  // point's body never ran, and every point either ran or was
  // cancelled.
  sim::SweepRunner runner(4);
  std::vector<std::atomic<bool>> started(64);
  EXPECT_THROW(runner.run(64,
                          [&](std::size_t i) {
                            started[i].store(true);
                            if (i == 40) throw std::runtime_error("boom");
                            return i;
                          }),
               std::runtime_error);
  ASSERT_EQ(runner.last_timeline().size(), 64u);
  EXPECT_FALSE(runner.last_timeline()[40].cancelled);
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_NE(started[i].load(), runner.last_timeline()[i].cancelled)
        << "point " << i;

  // The next run is clean.
  const auto out = runner.run(64, [](std::size_t i) { return i * 2; });
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(out[i], i * 2);
    EXPECT_FALSE(runner.last_timeline()[i].cancelled);
  }
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  common::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 37)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must stay usable after a throwing region.
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DynamicForPropagatesWorkerExceptions) {
  common::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_dynamic(0, 1000, 1,
                                         [](std::size_t i) {
                                           if (i == 999)
                                             throw std::invalid_argument("x");
                                         }),
               std::invalid_argument);
}

TEST(ThreadPool, ReduceCombinesInWorkerOrder) {
  // A non-commutative reduction (sequence concatenation): worker-order
  // combining must reproduce the sequential order exactly, every run.
  common::ThreadPool pool(4);
  const std::size_t n = 1000;
  for (int rep = 0; rep < 3; ++rep) {
    const auto out = pool.parallel_reduce<std::vector<std::size_t>>(
        0, n, [] { return std::vector<std::size_t>{}; },
        [](std::vector<std::size_t>& acc, std::size_t i) { acc.push_back(i); },
        [](std::vector<std::size_t>& into,
           const std::vector<std::size_t>& part) {
          into.insert(into.end(), part.begin(), part.end());
        });
    std::vector<std::size_t> expected(n);
    std::iota(expected.begin(), expected.end(), 0u);
    EXPECT_EQ(out, expected);
  }
}

TEST(ThreadPool, ReduceFloatSumIsRunToRunDeterministic) {
  common::ThreadPool pool(3);
  auto sum = [&] {
    return pool.parallel_reduce<double>(
        0, 10000, [] { return 0.0; },
        [](double& acc, std::size_t i) {
          acc += 1.0 / static_cast<double>(i + 1);
        },
        [](double& into, const double& part) { into += part; });
  };
  const double first = sum();
  for (int rep = 0; rep < 5; ++rep) EXPECT_EQ(sum(), first);
}

}  // namespace
}  // namespace p8
