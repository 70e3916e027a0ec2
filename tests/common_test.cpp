// Unit tests for the common runtime: RNG, statistics, tables,
// partitioning, the thread pool and CLI parsing.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/cli.hpp"
#include "common/contract.hpp"
#include "common/hugealloc.hpp"
#include "common/partition.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/threading.hpp"
#include "common/units.hpp"

namespace p8::common {
namespace {

// ---------------------------------------------------------------- units ----

TEST(Units, BinaryCapacities) {
  EXPECT_EQ(kib(1), 1024u);
  EXPECT_EQ(mib(8), 8u * 1024 * 1024);
  EXPECT_EQ(gib(2), 2ull * 1024 * 1024 * 1024);
}

TEST(Units, DecimalRates) {
  EXPECT_DOUBLE_EQ(gb_per_s(19.2), 19.2e9);
  EXPECT_DOUBLE_EQ(to_gb_per_s(1.472e12), 1472.0);
  EXPECT_DOUBLE_EQ(to_ns(ns(95.0)), 95.0);
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a() == b() ? 1 : 0;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(11);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, BoundedStaysInRange) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) ASSERT_LT(rng.bounded(17), 17u);
}

TEST(Rng, BoundedCoversRange) {
  Xoshiro256 rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.bounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BoundedZeroIsZero) {
  Xoshiro256 rng(5);
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Rng, SplitMixKnownFirstValue) {
  // Reference value from the SplitMix64 paper implementation.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
}

// ---------------------------------------------------------------- stats ----

TEST(Stats, MeanAndVariance) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Stats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, MergeMatchesSequential) {
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform() * 10.0;
    whole.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Stats, MergeWithEmpty) {
  RunningStats a;
  a.add(3.0);
  RunningStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
}

TEST(Stats, QuantileRejectsBadInput) {
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, 1.5), std::invalid_argument);
}

// ---------------------------------------------------------------- table ----

TEST(Table, RendersHeaderAndRows) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvQuotesCommas) {
  TextTable t({"k", "v"});
  t.add_row({"x,y", "1"});
  EXPECT_NE(t.to_csv().find("\"x,y\""), std::string::npos);
}

TEST(Table, FmtNumTrimsZeros) {
  EXPECT_EQ(fmt_num(1472.0, 1), "1472");
  EXPECT_EQ(fmt_num(26.5, 1), "26.5");
  EXPECT_EQ(fmt_num(0.8333, 2), "0.83");
}

TEST(Table, FmtBytesPicksUnit) {
  EXPECT_EQ(fmt_bytes(64.0 * 1024), "64 KB");
  EXPECT_EQ(fmt_bytes(8.0 * 1024 * 1024), "8 MB");
}

// ------------------------------------------------------------ partition ----

TEST(Partition, EqualWeightsSplitEvenly) {
  std::vector<std::uint64_t> w(100, 1);
  const auto b = balanced_partition(w, 4);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b.front(), 0u);
  EXPECT_EQ(b.back(), 100u);
  for (std::size_t p = 0; p < 4; ++p) EXPECT_EQ(b[p + 1] - b[p], 25u);
}

TEST(Partition, SkewedWeightsBalanceLoad) {
  // One heavy item at the front.
  std::vector<std::uint64_t> w(100, 1);
  w[0] = 100;
  const auto b = balanced_partition(w, 2);
  // First part should hold just the heavy item (plus a little).
  EXPECT_LE(b[1], 5u);
}

TEST(Partition, MorePartsThanItems) {
  std::vector<std::uint64_t> w{5, 5};
  const auto b = balanced_partition(w, 8);
  ASSERT_EQ(b.size(), 9u);
  for (std::size_t p = 0; p + 1 < b.size(); ++p) EXPECT_LE(b[p], b[p + 1]);
  EXPECT_EQ(b.back(), 2u);
}

TEST(Partition, EmptyInput) {
  const auto b = balanced_partition({}, 3);
  ASSERT_EQ(b.size(), 4u);
  for (const auto x : b) EXPECT_EQ(x, 0u);
}

TEST(Partition, RowsByNnz) {
  std::vector<std::uint64_t> row_ptr{0, 10, 10, 10, 20};
  const auto b = partition_rows_by_nnz(row_ptr, 2);
  // Each half should hold one heavy row.
  EXPECT_GE(b[1], 1u);
  EXPECT_LE(b[1], 3u);
}

class PartitionBalance : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PartitionBalance, NoPartExceedsTwiceIdeal) {
  const std::size_t parts = GetParam();
  Xoshiro256 rng(parts);
  std::vector<std::uint64_t> w(4096);
  for (auto& x : w) x = 1 + rng.bounded(100);
  const auto b = balanced_partition(w, parts);
  std::uint64_t total = std::accumulate(w.begin(), w.end(), 0ull);
  const double ideal = static_cast<double>(total) / parts;
  for (std::size_t p = 0; p < parts; ++p) {
    std::uint64_t sum = 0;
    for (std::size_t i = b[p]; i < b[p + 1]; ++i) sum += w[i];
    EXPECT_LE(static_cast<double>(sum), 2.0 * ideal + 100.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Parts, PartitionBalance,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16, 64));

// ------------------------------------------------------------ threading ----

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(5, 5, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, DynamicCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(777);
  pool.parallel_for_dynamic(0, 777, 10,
                            [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, StaticRangesPartitionExactly) {
  ThreadPool pool(5);
  std::size_t covered = 0;
  std::size_t prev_end = 3;
  for (std::size_t w = 0; w < pool.size(); ++w) {
    const auto [lo, hi] = pool.static_range(3, 103, w);
    EXPECT_EQ(lo, prev_end);
    prev_end = hi;
    covered += hi - lo;
  }
  EXPECT_EQ(covered, 100u);
  EXPECT_EQ(prev_end, 103u);
}

TEST(ThreadPool, ReduceSumsCorrectly) {
  ThreadPool pool(4);
  const auto sum = pool.parallel_reduce<std::uint64_t>(
      0, 10001, [] { return std::uint64_t{0}; },
      [](std::uint64_t& acc, std::size_t i) { acc += i; },
      [](std::uint64_t& into, const std::uint64_t& from) { into += from; });
  EXPECT_EQ(sum, 10000ull * 10001 / 2);
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::size_t i) {
                                   if (i == 57)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> n{0};
  pool.parallel_for(0, 10, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  std::atomic<int> n{0};
  pool.parallel_for(0, 100, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 100);
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool pool(0), std::invalid_argument);
}

// ------------------------------------------------------------------ cli ----

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=3", "--name", "bob", "--flag"};
  ArgParser p(5, argv);
  EXPECT_EQ(p.get_int("alpha", 0, ""), 3);
  EXPECT_EQ(p.get_string("name", "", ""), "bob");
  EXPECT_TRUE(p.get_flag("flag", ""));
  EXPECT_FALSE(p.finish());
}

TEST(Cli, DefaultsApply) {
  const char* argv[] = {"prog"};
  ArgParser p(1, argv);
  EXPECT_EQ(p.get_int("n", 42, ""), 42);
  EXPECT_DOUBLE_EQ(p.get_double("x", 2.5, ""), 2.5);
  EXPECT_FALSE(p.get_flag("quiet", ""));
}

TEST(Cli, IendsWithIsCaseInsensitive) {
  // Extension sniffing for --counters: "x.csv", "x.CSV" and "x.CsV"
  // must all select CSV output.
  EXPECT_TRUE(iends_with("dump.csv", ".csv"));
  EXPECT_TRUE(iends_with("dump.CSV", ".csv"));
  EXPECT_TRUE(iends_with("dump.CsV", ".csv"));
  EXPECT_FALSE(iends_with("dump.json", ".csv"));
  EXPECT_FALSE(iends_with("dumpcsv", ".csv"));   // no dot
  EXPECT_FALSE(iends_with("csv", ".csv"));       // shorter than suffix
  EXPECT_TRUE(iends_with(".csv", ".csv"));       // exact match
  EXPECT_FALSE(iends_with("a.csv.bak", ".csv")); // suffix, not substring
}

TEST(Cli, UnknownOptionRejected) {
  const char* argv[] = {"prog", "--mystery=1"};
  ArgParser p(2, argv);
  p.get_int("known", 0, "");
  EXPECT_THROW(p.finish(), std::invalid_argument);
}

TEST(Cli, TinyDoubleDefaultSurvives) {
  // Regression: std::to_string(1e-10) is "0.000000"; the default must
  // not be round-tripped through a string.
  const char* argv[] = {"prog"};
  ArgParser p(1, argv);
  EXPECT_DOUBLE_EQ(p.get_double("tol", 1e-10, ""), 1e-10);
}

TEST(Cli, GivenDoubleParsesScientific) {
  const char* argv[] = {"prog", "--tol=1e-8"};
  ArgParser p(2, argv);
  EXPECT_DOUBLE_EQ(p.get_double("tol", 1e-10, ""), 1e-8);
}

TEST(Cli, BadIntegerRejected) {
  const char* argv[] = {"prog", "--n=abc"};
  ArgParser p(2, argv);
  EXPECT_THROW(p.get_int("n", 0, ""), std::invalid_argument);
}

TEST(Cli, TrailingGarbageIntegerRejected) {
  // Regression: "--trials 10x" parsed as 10 (std::stoll stops at the
  // first non-digit); it must be an error in both argument forms.
  {
    const char* argv[] = {"prog", "--n=10x"};
    ArgParser p(2, argv);
    EXPECT_THROW(p.get_int("n", 0, ""), std::invalid_argument);
  }
  {
    const char* argv[] = {"prog", "--trials", "10x"};
    ArgParser p(3, argv);
    EXPECT_THROW(p.get_int("trials", 0, ""), std::invalid_argument);
  }
}

TEST(Cli, TrailingGarbageDoubleRejected) {
  const char* argv[] = {"prog", "--x=1.5q"};
  ArgParser p(2, argv);
  EXPECT_THROW(p.get_double("x", 0.0, ""), std::invalid_argument);
}

TEST(Cli, WellFormedNumbersStillParse) {
  const char* argv[] = {"prog", "--n=-7", "--x=2.5e3"};
  ArgParser p(3, argv);
  EXPECT_EQ(p.get_int("n", 0, ""), -7);
  EXPECT_DOUBLE_EQ(p.get_double("x", 0.0, ""), 2.5e3);
  EXPECT_FALSE(p.finish());
}

TEST(Cli, FlagLiterals) {
  // Regression: "--v=yes" used to read as *false*; only the documented
  // literals are accepted now.
  {
    const char* argv[] = {"prog", "--a=1", "--b=true", "--c=0", "--d=false"};
    ArgParser p(5, argv);
    EXPECT_TRUE(p.get_flag("a", ""));
    EXPECT_TRUE(p.get_flag("b", ""));
    EXPECT_FALSE(p.get_flag("c", ""));
    EXPECT_FALSE(p.get_flag("d", ""));
    EXPECT_FALSE(p.finish());
  }
  {
    const char* argv[] = {"prog", "--v=yes"};
    ArgParser p(2, argv);
    EXPECT_THROW(p.get_flag("v", ""), std::invalid_argument);
  }
}

TEST(Cli, HelpRequested) {
  const char* argv[] = {"prog", "--help"};
  ArgParser p(2, argv);
  p.get_int("n", 1, "the n");
  EXPECT_TRUE(p.finish());
  EXPECT_TRUE(p.help_requested());
  EXPECT_NE(p.help().find("--n"), std::string::npos);
}

TEST(Cli, UnknownArgsListsOnlyUnconsumedOptions) {
  // The non-throwing sibling of finish(): misspelled options come back
  // in sorted order, declared/consumed ones and --help do not.
  const char* argv[] = {"prog", "--zeta=1", "--alpha=2", "--known=3",
                        "--help"};
  ArgParser p(5, argv);
  p.get_int("known", 0, "");
  const std::vector<std::string> unknown = p.unknown_args();
  ASSERT_EQ(unknown.size(), 2u);
  EXPECT_EQ(unknown[0], "alpha");
  EXPECT_EQ(unknown[1], "zeta");
  EXPECT_TRUE(p.help_requested());
}

TEST(Cli, UnknownArgsEmptyOnCleanCommandLine) {
  const char* argv[] = {"prog", "--n=7"};
  ArgParser p(2, argv);
  p.get_int("n", 0, "");
  EXPECT_TRUE(p.unknown_args().empty());
  EXPECT_FALSE(p.help_requested());
}

TEST(Cli, SuggestFindsNearbyDeclaredOption) {
  const char* argv[] = {"prog"};
  ArgParser p(1, argv);
  p.get_string("machine", "e870", "");
  p.get_int("threads", 1, "");
  EXPECT_EQ(p.suggest("machin"), "machine");    // one deletion
  EXPECT_EQ(p.suggest("mahcine"), "machine");   // transposed pair
  EXPECT_EQ(p.suggest("treads"), "threads");    // one deletion
  EXPECT_EQ(p.suggest("verbose"), "");          // nothing close
}

// ------------------------------------------------------- huge alloc ----

TEST(HugePageAllocator, OverflowingElementCountThrowsBadAlloc) {
  // n * sizeof(T) would wrap around SIZE_MAX; before the guard this
  // handed a tiny block to a caller about to index gigabytes past it.
  HugePageAllocator<std::uint64_t> alloc;
  const std::size_t overflowing = SIZE_MAX / sizeof(std::uint64_t) + 1;
  EXPECT_THROW((void)alloc.allocate(overflowing), std::bad_alloc);
  EXPECT_THROW((void)alloc.allocate(SIZE_MAX), std::bad_alloc);
}

TEST(HugePageAllocator, SmallAndZeroAllocationsStillWork) {
  HugePageAllocator<std::uint64_t> alloc;
  std::uint64_t* p = alloc.allocate(16);
  ASSERT_NE(p, nullptr);
  p[0] = 42;
  p[15] = 7;
  alloc.deallocate(p, 16);
  std::uint64_t* z = alloc.allocate(0);
  ASSERT_NE(z, nullptr);
  alloc.deallocate(z, 0);
}

TEST(HugePageAllocator, LargeBlocksAreHugePageAligned) {
  HugePageAllocator<std::uint64_t> alloc;
  const std::size_t huge = HugePageAllocator<std::uint64_t>::kHugeBytes;
  for (const std::size_t bytes : {huge, huge + 8, 6 * huge - 8}) {
    const std::size_t n = bytes / sizeof(std::uint64_t);
    std::uint64_t* p = alloc.allocate(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % huge, 0u) << bytes;
    p[0] = 1;  // both ends of the block are writable
    p[n - 1] = 2;
    alloc.deallocate(p, n);
  }
}

/// This process's resident set, from /proc/self/statm (0 if unreadable).
std::int64_t resident_bytes() {
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%*s %ld", &pages) != 1) pages = 0;
    std::fclose(f);
  }
  return static_cast<std::int64_t>(pages) * sysconf(_SC_PAGESIZE);
}

TEST(HugePageAllocator, FreedBlocksLeaveTheProcess) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "AddressSanitizer builds allocate large blocks with "
                  "aligned_alloc, whose quarantine keeps freed blocks "
                  "resident by design";
#endif
  const std::int64_t before = resident_bytes();
  if (before == 0) GTEST_SKIP() << "no /proc/self/statm on this host";
  // 32 cycles of 64 MiB, as eight 8 MiB arrays (an e870 probe's L4
  // array), each followed by a small heap block that stays live: a
  // heap-backed allocator could neither trim those arrays nor reuse
  // them without keeping them resident.
  using Block = std::vector<std::uint64_t, HugePageAllocator<std::uint64_t>>;
  std::vector<void*> pins;
  for (int cycle = 0; cycle < 32; ++cycle) {
    std::vector<Block> blocks;
    for (int b = 0; b < 8; ++b) {
      blocks.emplace_back(mib(8) / sizeof(std::uint64_t));  // zero-filled
      pins.push_back(std::malloc(64));
    }
  }
  const std::int64_t after = resident_bytes();
  for (void* p : pins) std::free(p);
  EXPECT_LT(after - before, std::int64_t{8} << 20)
      << "resident grew from " << (before >> 20) << " MiB to "
      << (after >> 20) << " MiB over 2 GiB of alloc/free";
}

// ------------------------------------------------------------ contracts ----
// This TU does NOT force P8_CONTRACTS_ENABLED, so it sees whatever the
// build configured — exactly what the simulator sources see.  The
// forced-on/forced-off semantics live in contracts_test.cpp /
// contracts_off_test.cpp; here we pin that the build-facing behaviour
// matches contracts_enabled().

TEST(Contract, BuildModeMatchesReportedState) {
  if (contracts_enabled()) {
    EXPECT_THROW(P8_ENSURE(false, "active in this build"), ContractViolation);
  } else {
    EXPECT_NO_THROW(P8_ENSURE(false, "compiled out in this build"));
  }
}

TEST(Contract, PassingContractsAreAlwaysSilent) {
  EXPECT_NO_THROW(P8_ENSURE(2 + 2 == 4, "arithmetic"));
  EXPECT_NO_THROW(P8_INVARIANT(true, ""));
}

TEST(Contract, StaticRequireIsUnconditional) {
  P8_STATIC_REQUIRE(sizeof(void*) >= 4, "pointers are at least 32 bits");
  SUCCEED();
}

}  // namespace
}  // namespace p8::common
