// Tests for the shared bench helpers (bench/bench_util.hpp): counter
// dumps — including CSV/JSON escaping of hostile counter names — the
// --machine / unknown-option plumbing every bench main() uses, the
// --threads / --task-json task-engine flags, and the tolerance-table
// gate machinery shared by bench_scaling_matrix and bench_predict.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace p8;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(WriteCounters, EmptyPathIsANoOpSuccess) {
  sim::CounterRegistry reg;
  *reg.slot("a.b") = 1;
  EXPECT_TRUE(bench::write_counters(reg, "", "bench"));
}

TEST(WriteCounters, ExtensionPicksTheFormat) {
  sim::CounterRegistry reg;
  *reg.slot("probe.hits") = 42;

  const std::string csv_path = "bench_util_test_dump.csv";
  ASSERT_TRUE(bench::write_counters(reg, csv_path, "t"));
  EXPECT_EQ(slurp(csv_path), "counter,value\nprobe.hits,42\n");
  std::remove(csv_path.c_str());

  // Case-insensitive extension sniff, like every other path option.
  const std::string upper_path = "bench_util_test_dump.CSV";
  ASSERT_TRUE(bench::write_counters(reg, upper_path, "t"));
  EXPECT_EQ(slurp(upper_path), "counter,value\nprobe.hits,42\n");
  std::remove(upper_path.c_str());

  const std::string json_path = "bench_util_test_dump.json";
  ASSERT_TRUE(bench::write_counters(reg, json_path, "t"));
  EXPECT_EQ(slurp(json_path),
            "{\n  \"bench\": \"t\",\n  \"counters\": {\n"
            "    \"probe.hits\": 42\n  }\n}\n");
  std::remove(json_path.c_str());
}

TEST(WriteCounters, UnwritablePathFailsLoudly) {
  sim::CounterRegistry reg;
  *reg.slot("a") = 1;
  EXPECT_FALSE(
      bench::write_counters(reg, "no/such/dir/bench_util_test.csv", "t"));
}

TEST(CounterCsv, HostileNamesAreRfc4180Quoted) {
  sim::CounterRegistry reg;
  *reg.slot("plain.name") = 1;
  *reg.slot("with,comma") = 2;
  *reg.slot("with\"quote") = 3;
  *reg.slot("with\nnewline") = 4;
  const std::string csv = sim::CounterRegistry(reg).to_csv();
  EXPECT_NE(csv.find("plain.name,1\n"), std::string::npos) << csv;
  EXPECT_NE(csv.find("\"with,comma\",2\n"), std::string::npos) << csv;
  EXPECT_NE(csv.find("\"with\"\"quote\",3\n"), std::string::npos) << csv;
  EXPECT_NE(csv.find("\"with\nnewline\",4\n"), std::string::npos) << csv;
  // Exactly one header plus four rows.
  EXPECT_EQ(csv.rfind("counter,value\n", 0), 0u) << csv;
}

TEST(CounterJson, HostileNamesAreEscaped) {
  sim::CounterRegistry reg;
  *reg.slot("with\"quote") = 1;
  const std::string json = reg.to_json("bench \"x\"");
  EXPECT_NE(json.find("\"bench \\\"x\\\"\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"with\\\"quote\": 1"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------

common::ArgParser make_args(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "bench_util_test");
  return common::ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(FinishArgs, ProceedsOnCleanCommandLines) {
  common::ArgParser args = make_args({"--machine=e870"});
  (void)bench::machine_arg(args);
  EXPECT_FALSE(bench::finish_args(args).has_value());
}

TEST(FinishArgs, HelpExitsZero) {
  common::ArgParser args = make_args({"--help"});
  (void)bench::machine_arg(args);
  const auto exit_code = bench::finish_args(args);
  ASSERT_TRUE(exit_code.has_value());
  EXPECT_EQ(*exit_code, 0);
}

TEST(FinishArgs, UnknownOptionExitsTwo) {
  common::ArgParser args = make_args({"--machin=e870"});
  (void)bench::machine_arg(args);
  const auto exit_code = bench::finish_args(args);
  ASSERT_TRUE(exit_code.has_value());
  EXPECT_EQ(*exit_code, 2);
}

TEST(MachineArg, DefaultsToE870AndAdvertisesPresets) {
  common::ArgParser args = make_args({});
  EXPECT_EQ(bench::machine_arg(args), "e870");
  EXPECT_NE(args.help().find("e880"), std::string::npos);
}

TEST(ThreadsArg, DefaultsToZeroMeaningHardwareThreads) {
  common::ArgParser args = make_args({});
  const auto threads = bench::threads_arg(args);
  ASSERT_TRUE(threads.has_value());
  EXPECT_EQ(*threads, 0u);
}

TEST(ThreadsArg, AcceptsTheFullValidRange) {
  for (const char* flag : {"--threads=1", "--threads=7", "--threads=4096"}) {
    common::ArgParser args = make_args({flag});
    EXPECT_TRUE(bench::threads_arg(args).has_value()) << flag;
  }
}

TEST(ThreadsArg, RejectsOutOfRangeValues) {
  for (const char* flag : {"--threads=-1", "--threads=4097",
                           "--threads=1000000"}) {
    common::ArgParser args = make_args({flag});
    EXPECT_FALSE(bench::threads_arg(args).has_value()) << flag;
  }
}

TEST(ThreadsArg, RejectsUnparsableValues) {
  for (const char* flag : {"--threads=abc", "--threads=4x", "--threads="}) {
    common::ArgParser args = make_args({flag});
    EXPECT_FALSE(bench::threads_arg(args).has_value()) << flag;
  }
}

TEST(TaskTimeline, EmptyPathIsANoOpSuccess) {
  EXPECT_TRUE(bench::write_task_timeline("{}", ""));
}

TEST(TaskTimeline, WritesTheBodyVerbatim) {
  const std::string path = "bench_util_test_timeline.json";
  const std::string body = "{\"bench\": \"t\", \"timeline\": []}\n";
  ASSERT_TRUE(bench::write_task_timeline(body, path));
  EXPECT_EQ(slurp(path), body);
  std::remove(path.c_str());
}

TEST(TaskTimeline, UnwritablePathFailsLoudly) {
  EXPECT_FALSE(
      bench::write_task_timeline("{}", "no/such/dir/timeline.json"));
}

TEST(LoadMachine, ResolvesPresetsAndRejectsGarbage) {
  const auto spec = bench::load_machine("e850c");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->system.sockets, 2);
  EXPECT_FALSE(bench::load_machine("e999").has_value());
  EXPECT_FALSE(bench::load_machine("missing_file.json").has_value());
}

// ---------------------------------------------------------------------------
// Tolerance-table gate machinery.

TEST(GateVerdicts, AddCheckAndFailedCountAgree) {
  std::vector<bench::Verdict> verdicts;
  EXPECT_EQ(bench::failed_count(verdicts), 0);
  bench::add_check(verdicts, "latency.plateaus", true, "ordered");
  bench::add_check(verdicts, "mix.2to1-peak", false, "inverted");
  bench::add_check(verdicts, "noc.inter-gt-intra", false, "flat");
  ASSERT_EQ(verdicts.size(), 3u);
  EXPECT_EQ(verdicts[1].invariant, "mix.2to1-peak");
  EXPECT_EQ(bench::failed_count(verdicts), 2);
}

TEST(GateVerdicts, PrintFailedReportsOnlyFailuresInRowOrder) {
  std::vector<bench::Verdict> verdicts;
  bench::add_check(verdicts, "first.ok", true, "fine");
  bench::add_check(verdicts, "second.bad", false, "off by 2x");
  bench::add_check(verdicts, "third.bad", false, "missing");
  ::testing::internal::CaptureStderr();
  const int failed = bench::print_failed("e870", verdicts);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(failed, 2);
  EXPECT_EQ(err,
            "FAIL [e870] second.bad: off by 2x\n"
            "FAIL [e870] third.bad: missing\n");
}

TEST(ToleranceChecks, WithinRatioAndStatus) {
  bench::ToleranceCheck c{"latency.DRAM", 100.0, 101.0, 0.02, false};
  EXPECT_DOUBLE_EQ(bench::tolerance_ratio(c), 1.01);
  EXPECT_TRUE(bench::tolerance_within(c));
  EXPECT_STREQ(bench::tolerance_status(c), "PASS");

  c.value = 103.0;  // 3% off a 2% tolerance
  EXPECT_FALSE(bench::tolerance_within(c));
  EXPECT_STREQ(bench::tolerance_status(c), "FAIL");

  c.allow_warn = true;  // documented deviation
  EXPECT_STREQ(bench::tolerance_status(c), "ALLOWED");

  // The boundary itself passes: |ratio - 1| <= tol, not < (values
  // chosen binary-exact so the ratio is exactly 1.25).
  const bench::ToleranceCheck edge{"edge", 8.0, 10.0, 0.25, false};
  EXPECT_TRUE(bench::tolerance_within(edge));
  const bench::ToleranceCheck past{"past", 8.0, 10.5, 0.25, false};
  EXPECT_FALSE(bench::tolerance_within(past));
}

TEST(ToleranceChecks, ZeroReferenceRequiresZeroValue) {
  bench::ToleranceCheck zero{"stream.idle", 0.0, 0.0, 0.02, false};
  EXPECT_EQ(bench::tolerance_ratio(zero), 0.0);
  EXPECT_TRUE(bench::tolerance_within(zero));
  zero.value = 1e-9;
  EXPECT_FALSE(bench::tolerance_within(zero));
  EXPECT_STREQ(bench::tolerance_status(zero), "FAIL");
}

TEST(ToleranceChecks, VerdictRendersStatusAndGatesOnlyOnFail) {
  const bench::Verdict pass = bench::tolerance_verdict(
      {"latency.L1", 0.7, 0.7, 0.02, false});
  EXPECT_TRUE(pass.ok);
  EXPECT_EQ(pass.invariant, "latency.L1");
  EXPECT_NE(pass.detail.find("PASS"), std::string::npos);

  const bench::Verdict allowed = bench::tolerance_verdict(
      {"bw.write-only", 10.0, 20.0, 0.02, true});
  EXPECT_TRUE(allowed.ok) << "ALLOWED rows must not gate";
  EXPECT_NE(allowed.detail.find("ALLOWED"), std::string::npos);

  const bench::Verdict fail = bench::tolerance_verdict(
      {"bw.2to1", 10.0, 20.0, 0.02, false});
  EXPECT_FALSE(fail.ok);
  EXPECT_NE(fail.detail.find("FAIL"), std::string::npos);
  EXPECT_NE(fail.detail.find("ratio 2"), std::string::npos);
}

TEST(HierarchyLandmarks, CoversEveryLevelOfTheE870MidPlateau) {
  const auto spec = bench::load_machine("e870");
  ASSERT_TRUE(spec.has_value());
  const auto landmarks =
      bench::hierarchy_landmarks(spec->machine().hierarchy());
  ASSERT_EQ(landmarks.size(), 6u);
  const char* levels[] = {"L1", "L2", "L3", "chip-L3", "L4", "DRAM"};
  for (std::size_t i = 0; i < landmarks.size(); ++i) {
    EXPECT_STREQ(landmarks[i].level, levels[i]);
    if (i > 0) EXPECT_GT(landmarks[i].bytes, landmarks[i - 1].bytes);
  }
  // Each landmark sits strictly inside its plateau: L1's is half the
  // L1, L2's between the L1 and L2 capacities, and so on.
  EXPECT_EQ(landmarks[0].bytes, spec->system.processor.core.l1d_bytes / 2);
  EXPECT_LT(landmarks[1].bytes, spec->system.processor.core.l2_bytes);
  EXPECT_GT(landmarks[1].bytes, spec->system.processor.core.l1d_bytes);
}

TEST(HierarchyLandmarks, SkipsLevelsTheSpecDoesNotHave) {
  auto spec = bench::load_machine("e870");
  ASSERT_TRUE(spec.has_value());
  // Ablate the L4 below the chip L3: the L4 plateau disappears and the
  // DRAM landmark is sized off the deepest remaining level.
  spec->system.centaur.l4_bytes = 1;
  const auto landmarks =
      bench::hierarchy_landmarks(spec->machine().hierarchy());
  for (const auto& lm : landmarks) EXPECT_STRNE(lm.level, "L4");
  const std::uint64_t chip_l3 = spec->system.processor.l3_total_bytes(
      spec->system.cores_per_chip);
  EXPECT_EQ(landmarks.back().bytes, 4 * chip_l3);
}

}  // namespace
