// Tests for the work-stealing task-graph engine: dependency edges are
// honoured at every pool width, cycles are rejected with a structured
// error before anything runs, a throwing task cancels its dependents
// (and only its dependents), the per-task timeline is recorded and
// renders to schema-stable JSON, and the SweepRunner port on top of
// the engine keeps its counter-merge determinism bit-identical to the
// serial loop across 1/2/4/7 workers.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/spec.hpp"
#include "common/json.hpp"
#include "common/taskgraph.hpp"
#include "common/threading.hpp"
#include "common/units.hpp"
#include "proptest.hpp"
#include "sim/counters.hpp"
#include "sim/machine/machine.hpp"
#include "sim/machine/sweep.hpp"
#include "ubench/workloads.hpp"

namespace p8 {
namespace {

TEST(TaskGraph, DiamondRunsInTopologicalOrder) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    common::TaskGraph graph;
    std::mutex mutex;
    std::vector<std::string> order;
    auto log = [&](const char* name) {
      return [&order, &mutex, name] {
        const std::lock_guard<std::mutex> lock(mutex);
        order.emplace_back(name);
      };
    };
    const common::TaskId a = graph.add("a", log("a"));
    const common::TaskId b = graph.add("b", log("b"), {a});
    const common::TaskId c = graph.add("c", log("c"), {a});
    graph.add("d", log("d"), {b, c});

    common::ThreadPool pool(workers);
    common::TaskEngine engine(pool);
    engine.run(graph);

    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order.front(), "a");
    EXPECT_EQ(order.back(), "d");
  }
}

TEST(TaskGraph, EveryTaskRunsExactlyOnce) {
  common::TaskGraph graph;
  const std::size_t n = 200;
  std::vector<std::atomic<int>> runs(n);
  for (std::size_t i = 0; i < n; ++i) runs[i].store(0);
  std::vector<common::TaskId> ids;
  for (std::size_t i = 0; i < n; ++i) {
    if (i < 4)
      ids.push_back(graph.add("t" + std::to_string(i),
                              [&runs, i] { runs[i].fetch_add(1); }));
    else
      // A shallow fan: each task depends on one earlier task, so the
      // ready set stays wide and steals are possible.
      ids.push_back(graph.add(
          "t" + std::to_string(i), [&runs, i] { runs[i].fetch_add(1); },
          {ids[i % 4]}));
  }
  common::ThreadPool pool(4);
  common::TaskEngine engine(pool);
  engine.run(graph);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
  EXPECT_EQ(engine.timeline().size(), n);
}

TEST(TaskGraph, CycleIsRejectedWithStructuredError) {
  common::TaskGraph graph;
  std::atomic<int> ran{0};
  const common::TaskId a = graph.add("ring.a", [&] { ++ran; });
  const common::TaskId b = graph.add("ring.b", [&] { ++ran; }, {a});
  const common::TaskId c = graph.add("ring.c", [&] { ++ran; }, {b});
  graph.add_dependency(a, c);  // closes ring.a -> ring.b -> ring.c -> ring.a
  graph.add("innocent", [&] { ++ran; });

  common::ThreadPool pool(2);
  common::TaskEngine engine(pool);
  try {
    engine.run(graph);
    FAIL() << "cyclic graph did not throw";
  } catch (const common::TaskGraphCycleError& e) {
    // The structured error names the tasks on the cycle, in edge order.
    EXPECT_EQ(e.cycle().size(), 3u);
    for (const char* name : {"ring.a", "ring.b", "ring.c"}) {
      bool found = false;
      for (const std::string& member : e.cycle()) found |= member == name;
      EXPECT_TRUE(found) << name << " missing from cycle()";
    }
    EXPECT_NE(std::string(e.what()).find("dependency cycle"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("ring.b"), std::string::npos);
  }
  // Validation failed before execution: no body ran, not even the
  // innocent off-cycle task.
  EXPECT_EQ(ran.load(), 0);
}

TEST(TaskGraph, SelfDependencyIsACycle) {
  common::TaskGraph graph;
  const common::TaskId t = graph.add("selfish", [] {});
  graph.add_dependency(t, t);
  common::ThreadPool pool(1);
  common::TaskEngine engine(pool);
  EXPECT_THROW(engine.run(graph), common::TaskGraphCycleError);
}

TEST(TaskGraph, InvalidDependencyIdsAreRejected) {
  common::TaskGraph graph;
  const common::TaskId t = graph.add("only", [] {});
  EXPECT_THROW(graph.add_dependency(t, t + 1), std::invalid_argument);
  EXPECT_THROW(graph.add_dependency(t + 1, t), std::invalid_argument);
}

TEST(TaskGraph, ExceptionCancelsDependentsButNotSiblings) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    common::TaskGraph graph;
    std::atomic<bool> b_ran{false};
    std::atomic<bool> c_ran{false};
    std::atomic<bool> d_ran{false};
    const common::TaskId a =
        graph.add("a.throws", [] { throw std::runtime_error("boom"); });
    const common::TaskId b =
        graph.add("b.dependent", [&] { b_ran = true; }, {a});
    graph.add("c.grandchild", [&] { c_ran = true; }, {b});
    graph.add("d.sibling", [&] { d_ran = true; });

    common::ThreadPool pool(workers);
    common::TaskEngine engine(pool);
    try {
      engine.run(graph);
      FAIL() << "task exception was swallowed";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom");
    }
    // Cancellation follows the edges: the failed task's chain is
    // skipped, the unrelated sibling still runs.
    EXPECT_FALSE(b_ran.load());
    EXPECT_FALSE(c_ran.load());
    EXPECT_TRUE(d_ran.load());

    ASSERT_EQ(engine.timeline().size(), 4u);
    EXPECT_FALSE(engine.timeline()[0].cancelled);
    EXPECT_TRUE(engine.timeline()[1].cancelled);
    EXPECT_TRUE(engine.timeline()[2].cancelled);
    EXPECT_FALSE(engine.timeline()[3].cancelled);
  }
}

TEST(TaskGraph, EngineIsReusableAfterFailureAndAcrossRuns) {
  common::ThreadPool pool(2);
  common::TaskEngine engine(pool);

  common::TaskGraph bad;
  bad.add("explode", [] { throw std::logic_error("x"); });
  EXPECT_THROW(engine.run(bad), std::logic_error);

  common::TaskGraph good;
  std::atomic<int> sum{0};
  for (int i = 0; i < 10; ++i)
    good.add("add" + std::to_string(i), [&sum, i] { sum += i; });
  engine.run(good);
  EXPECT_EQ(sum.load(), 45);
  EXPECT_EQ(engine.timeline().size(), 10u);

  common::TaskGraph empty;
  engine.run(empty);  // zero tasks is a no-op, not an error
  EXPECT_TRUE(engine.timeline().empty());
}

TEST(TaskGraph, TimelineRecordsNamesWorkersAndSpans) {
  common::TaskGraph graph;
  const common::TaskId a = graph.add("first", [] {});
  graph.add("second", [] {}, {a});
  common::ThreadPool pool(2);
  common::TaskEngine engine(pool);
  engine.run(graph);

  const auto& timeline = engine.timeline();
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline[0].name, "first");
  EXPECT_EQ(timeline[1].name, "second");
  for (const common::TaskRecord& r : timeline) {
    EXPECT_LT(r.worker, 2u);
    EXPECT_GE(r.start_s, 0.0);
    EXPECT_GE(r.end_s, r.start_s);
    EXPECT_FALSE(r.cancelled);
  }
  // Dependency spans cannot overlap backwards: "second" starts at or
  // after "first" ended.
  EXPECT_GE(timeline[1].start_s, timeline[0].end_s);
}

TEST(TaskGraph, TimelineJsonMatchesSchema) {
  common::TaskGraph graph;
  const common::TaskId a = graph.add("scan \"quoted\"", [] {});
  graph.add("merge", [] {}, {a});
  common::ThreadPool pool(3);
  common::TaskEngine engine(pool);
  engine.run(graph);

  const common::Json doc = common::Json::parse(engine.timeline_json("unit"));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("bench")->as_string("bench"), "unit");
  EXPECT_EQ(doc.find("workers")->as_number("workers"), 3.0);
  EXPECT_EQ(doc.find("tasks")->as_number("tasks"), 2.0);
  ASSERT_NE(doc.find("steals"), nullptr);
  EXPECT_GE(doc.find("wall_s")->as_number("wall_s"), 0.0);
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
            "scan \"quoted\"");
}

TEST(TaskGraphProperty, RandomDagsCompleteAndRespectDependencies) {
  P8_PROP(gen, 40, 0x7a5cfeed) {
    const std::size_t n = gen.range(1, 48);
    const std::size_t workers =
        gen.pick({std::size_t{1}, std::size_t{2}, std::size_t{4},
                  std::size_t{7}});
    common::TaskGraph graph;
    std::vector<std::atomic<bool>> done(n);
    for (std::size_t i = 0; i < n; ++i) done[i].store(false);
    std::atomic<bool> dep_violated{false};
    std::vector<common::TaskId> ids;
    for (std::size_t i = 0; i < n; ++i) {
      // Edges only from lower to higher index — acyclic by
      // construction, arbitrary fan-in/fan-out.
      std::vector<common::TaskId> deps;
      for (std::size_t j = 0; j < i; ++j)
        if (gen.chance(0.12)) deps.push_back(ids[j]);
      ids.push_back(graph.add(
          "p" + std::to_string(i),
          [&done, &dep_violated, deps, i] {
            for (const common::TaskId d : deps)
              if (!done[d].load(std::memory_order_acquire))
                dep_violated.store(true);
            done[i].store(true, std::memory_order_release);
          },
          deps));
    }
    common::ThreadPool pool(workers);
    common::TaskEngine engine(pool);
    engine.run(graph);
    EXPECT_FALSE(dep_violated.load()) << "a task ran before a dependency";
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_TRUE(done[i].load()) << "task " << i << " never ran";
    EXPECT_EQ(engine.timeline().size(), n);
  }
}

// ---------------------------------------------------------------------------
// The SweepRunner port: same results, same merged counters, any width.

ubench::ChaseOptions small_chase(std::size_t i) {
  ubench::ChaseOptions opt;
  opt.working_set_bytes = common::kib(32) << (i % 4);
  opt.warm_accesses = 4096;
  opt.measure_accesses = 20000;
  opt.seed = 42 + i;
  return opt;
}

TEST(TaskGraphSweep, CounterMergeBitIdenticalAcross1_2_4_7Workers) {
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

TEST(TaskGraphSweep, RunnerRecordsATimelinePerSweep) {
  sim::SweepRunner runner(2);
  runner.set_task_label("unit.point");
  const auto out =
      runner.run(5, [](std::size_t i) { return static_cast<double>(i * i); });
  EXPECT_EQ(out, (std::vector<double>{0.0, 1.0, 4.0, 9.0, 16.0}));
  ASSERT_EQ(runner.last_timeline().size(), 5u);
  EXPECT_EQ(runner.last_timeline()[0].name, "unit.point#0");
  EXPECT_EQ(runner.last_timeline()[4].name, "unit.point#4");
}

}  // namespace
}  // namespace p8
