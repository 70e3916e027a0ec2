// Tests for the microbenchmark workloads: the Figure 2/7/8 behaviours
// must show up when the workloads drive the machine model.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "arch/spec.hpp"
#include "sim/machine/machine.hpp"
#include "trace/replay.hpp"
#include "ubench/workloads.hpp"

namespace p8::ubench {
namespace {

using common::kib;
using common::mib;

const sim::Machine& machine() {
  static const sim::Machine m = sim::Machine(arch::e870());
  return m;
}

ChaseOptions chase_at(std::uint64_t ws) {
  ChaseOptions o;
  o.working_set_bytes = ws;
  o.page_bytes = 16ull << 20;
  return o;
}

TEST(Chase, L1Plateau) {
  const double lat = chase_latency_ns(machine(), chase_at(kib(32)));
  EXPECT_LT(lat, 1.5);
}

TEST(Chase, L2Plateau) {
  const double lat = chase_latency_ns(machine(), chase_at(kib(256)));
  EXPECT_GT(lat, 1.5);
  EXPECT_LT(lat, 5.0);
}

TEST(Chase, L3Plateau) {
  const double lat = chase_latency_ns(machine(), chase_at(mib(4)));
  EXPECT_GT(lat, 4.0);
  EXPECT_LT(lat, 12.0);
}

TEST(Chase, RemoteL3Shelf) {
  // 32 MB: past the local 8 MB region, mostly in the victim pool.
  const double lat = chase_latency_ns(machine(), chase_at(mib(32)));
  EXPECT_GT(lat, 12.0);
  EXPECT_LT(lat, 40.0);
}

TEST(Chase, L4Shoulder) {
  // 128 MB: beyond all SRAM (64 MB) but with strong L4 coverage.
  const double l4ish = chase_latency_ns(machine(), chase_at(mib(128)));
  const double dram = chase_latency_ns(machine(), chase_at(mib(1024)));
  EXPECT_LT(l4ish, dram - 10.0);
  EXPECT_GT(dram, 80.0);
}

TEST(Chase, MonotoneInWorkingSet) {
  double prev = 0.0;
  for (const std::uint64_t ws :
       {kib(32), kib(256), mib(2), mib(16), mib(96), mib(512)}) {
    const double lat = chase_latency_ns(machine(), chase_at(ws));
    EXPECT_GE(lat, prev - 0.5) << "ws " << ws;
    prev = lat;
  }
}

TEST(Chase, SmallPagesSpikeNear4MB) {
  // The Fig. 2 red-vs-blue gap: with 64 KB pages a 4-6 MB working set
  // overflows the 48-entry ERAT; with 16 MB pages it does not.
  ChaseOptions small = chase_at(mib(6));
  small.page_bytes = 64 * 1024;
  const double with_small = chase_latency_ns(machine(), small);
  const double with_huge = chase_latency_ns(machine(), chase_at(mib(6)));
  EXPECT_GT(with_small, with_huge + 1.0);
}

TEST(Chase, PageSizeIrrelevantInL1) {
  ChaseOptions small = chase_at(kib(32));
  small.page_bytes = 64 * 1024;
  const double a = chase_latency_ns(machine(), small);
  const double b = chase_latency_ns(machine(), chase_at(kib(32)));
  EXPECT_NEAR(a, b, 0.3);
}

TEST(Chase, ScanProducesOrderedSizes) {
  const auto points = memory_latency_scan(
      machine(), {kib(64), mib(1), mib(64)}, 16ull << 20);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_LT(points[0].latency_ns, points[1].latency_ns);
  EXPECT_LT(points[1].latency_ns, points[2].latency_ns);
}

TEST(Chase, ForwardStrideChainIsPrefetchable) {
  // A unit-stride forward chain over an out-of-cache working set: with
  // the prefetcher on, the dependent chase settles near
  // latency/(depth+1); with it off, full latency.
  ChaseOptions off = chase_at(mib(512));
  off.pattern = ChasePattern::kForwardStride;
  off.dscr = 1;
  ChaseOptions on = off;
  on.dscr = 7;
  const double lat_off = chase_latency_ns(machine(), off);
  const double lat_on = chase_latency_ns(machine(), on);
  EXPECT_GT(lat_off, 80.0);
  EXPECT_LT(lat_on, 20.0);
}

TEST(Chase, BackwardChainsAreDetectedToo) {
  // POWER8's prefetcher detects descending streams.
  ChaseOptions opt = chase_at(mib(512));
  opt.pattern = ChasePattern::kBackwardStride;
  opt.dscr = 7;
  EXPECT_LT(chase_latency_ns(machine(), opt), 20.0);
}

TEST(Chase, RandomDefeatsThePrefetcher) {
  ChaseOptions opt = chase_at(mib(512));
  opt.dscr = 7;  // prefetch on, but the pattern is random
  EXPECT_GT(chase_latency_ns(machine(), opt), 80.0);
}

TEST(Chase, StridedChainsCoverEveryLine) {
  // In-cache working set: any pattern must produce pure L1 hits after
  // warm-up, proving the chain is a single full cycle.
  for (const ChasePattern pattern :
       {ChasePattern::kForwardStride, ChasePattern::kBackwardStride}) {
    for (const std::uint64_t stride : {1ull, 3ull, 8ull}) {
      ChaseOptions opt = chase_at(kib(32));
      opt.pattern = pattern;
      opt.stride_lines = stride;
      EXPECT_LT(chase_latency_ns(machine(), opt), 1.0)
          << "stride " << stride;
    }
  }
}

// ------------------------------------------------------- chase chains ----
// emit_chase_trace walks the chain's visiting order directly.  The
// reference below builds the same chain as a next[] array (next[i] is
// the line after line i) and walks it from line 0 with the plain,
// unpipelined Sattolo shuffle; every emitted address and the measure
// mark must match it exactly.

struct RecordedChase {
  std::vector<std::uint64_t> addrs;
  std::vector<std::uint64_t> marks;  ///< accesses emitted before each mark
};

class RecordingSink final : public trace::TraceSink {
 public:
  explicit RecordingSink(RecordedChase& out) : out_(out) {}
  void access(std::uint64_t addr) override { out_.addrs.push_back(addr); }
  void dcbt_hint(std::uint64_t, std::uint64_t, bool) override {
    ADD_FAILURE() << "chase emitted a DCBT hint";
  }
  void dcbt_stop(std::uint64_t) override {
    ADD_FAILURE() << "chase emitted a DCBT stop";
  }
  void mark(std::uint64_t id) override {
    EXPECT_EQ(id, kMarkMeasureStart);
    out_.marks.push_back(out_.addrs.size());
  }

 private:
  RecordedChase& out_;
};

RecordedChase reference_chase(std::uint64_t line_bytes,
                              const ChaseOptions& options) {
  const std::uint64_t lines = std::max<std::uint64_t>(
      1, options.working_set_bytes / line_bytes);
  std::vector<std::uint32_t> order;
  if (options.pattern == ChasePattern::kRandom) {
    order.resize(lines);
    std::iota(order.begin(), order.end(), 0u);
    common::Xoshiro256 rng(options.seed);
    for (std::uint64_t i = lines - 1; i >= 1; --i)
      std::swap(order[i], order[rng.bounded(i)]);
  } else {
    for (std::uint64_t offset = 0;
         offset < options.stride_lines && offset < lines; ++offset)
      for (std::uint64_t i = offset; i < lines; i += options.stride_lines)
        order.push_back(static_cast<std::uint32_t>(i));
    if (options.pattern == ChasePattern::kBackwardStride)
      std::reverse(order.begin(), order.end());
  }
  std::vector<std::uint32_t> next(lines);
  for (std::uint64_t k = 0; k < lines; ++k)
    next[order[k]] = order[(k + 1) % lines];

  const std::uint64_t warm =
      std::min<std::uint64_t>(options.warm_accesses, 2 * lines);
  const std::uint64_t measure =
      std::max<std::uint64_t>(1, std::min(options.measure_accesses, lines));
  RecordedChase out;
  std::uint64_t pos = 0;
  for (std::uint64_t i = 0; i < warm + measure; ++i) {
    if (i == warm) out.marks.push_back(i);
    out.addrs.push_back(pos * line_bytes);
    pos = next[pos];
  }
  return out;
}

TEST(ChaseChain, StreamMatchesNextArrayReference) {
  constexpr std::uint64_t kLine = 128;
  for (const ChasePattern pattern :
       {ChasePattern::kRandom, ChasePattern::kForwardStride,
        ChasePattern::kBackwardStride}) {
    for (const std::uint64_t lines : {1, 2, 3, 17, 4096, 4097}) {
      const std::uint64_t strides[] = {1, 3, lines, lines + 1};
      for (const std::uint64_t stride : strides) {
        for (const std::uint64_t seed : {42u, 7u, 0x9e3779b9u}) {
          // Default windows (several laps), and short ones that stop
          // mid-lap.
          for (const bool short_windows : {false, true}) {
            ChaseOptions o;
            o.working_set_bytes = lines * kLine;
            o.pattern = pattern;
            o.stride_lines = stride;
            o.seed = seed;
            if (short_windows) {
              o.warm_accesses = 5;
              o.measure_accesses = 3;
            }
            RecordedChase got;
            RecordingSink sink(got);
            emit_chase_trace(kLine, o, sink);
            const RecordedChase want = reference_chase(kLine, o);
            ASSERT_EQ(got.marks, want.marks)
                << "pattern " << static_cast<int>(pattern) << " lines "
                << lines << " stride " << stride << " seed " << seed;
            ASSERT_EQ(got.addrs, want.addrs)
                << "pattern " << static_cast<int>(pattern) << " lines "
                << lines << " stride " << stride << " seed " << seed;
          }
        }
      }
    }
  }
}

TEST(ChaseChain, StartSlotIsWhereLineZeroSits) {
  // The chain keeps line 0's slot as it is built; a search must agree.
  for (const ChasePattern pattern :
       {ChasePattern::kRandom, ChasePattern::kForwardStride,
        ChasePattern::kBackwardStride}) {
    for (const std::uint64_t lines : {1, 2, 3, 17, 4097}) {
      for (const std::uint64_t stride : {1, 3}) {
        for (const std::uint64_t seed : {42u, 7u, 0x9e3779b9u}) {
          ChaseOptions o;
          o.pattern = pattern;
          o.stride_lines = stride;
          o.seed = seed;
          const ChaseChain chain = chase_chain(lines, o);
          ASSERT_EQ(chain.order.size(), lines);
          EXPECT_EQ(chain.start,
                    static_cast<std::uint64_t>(
                        std::find(chain.order.begin(), chain.order.end(), 0u) -
                        chain.order.begin()))
              << "pattern " << static_cast<int>(pattern) << " lines "
              << lines << " stride " << stride << " seed " << seed;
        }
      }
    }
  }
}

TEST(ChaseChain, RejectsChainsOverTwoToThe32Lines) {
  // One-byte lines make the working set's byte count its line count;
  // the check fires before the chain is allocated.
  ChaseOptions o;
  o.working_set_bytes = (std::uint64_t{1} << 32) + 1;
  RecordedChase got;
  RecordingSink sink(got);
  EXPECT_THROW(emit_chase_trace(1, o, sink), std::invalid_argument);
  EXPECT_TRUE(got.addrs.empty());
}

// ------------------------------------------------------- stride (Fig 7) ----

TEST(Stride, DisabledDetectorPaysFullLatency) {
  StrideOptions o;
  o.stride_n = false;
  const double lat = stride_latency_ns(machine(), o);
  EXPECT_GT(lat, 80.0);  // ~DRAM
}

TEST(Stride, EnabledDetectorHidesMostLatency) {
  StrideOptions o;
  o.stride_n = true;
  const double lat = stride_latency_ns(machine(), o);
  EXPECT_LT(lat, 20.0);  // paper: ~14 ns
  EXPECT_GT(lat, 5.0);
}

TEST(Stride, DepthMattersWhenEnabled) {
  StrideOptions shallow;
  shallow.stride_n = true;
  shallow.dscr = 2;
  StrideOptions deep;
  deep.stride_n = true;
  deep.dscr = 7;
  EXPECT_GT(stride_latency_ns(machine(), shallow),
            stride_latency_ns(machine(), deep));
}

TEST(Stride, UnitStrideNeedsNoStrideN) {
  StrideOptions o;
  o.stride_lines = 1;
  o.stride_n = false;
  o.dscr = 7;
  EXPECT_LT(stride_latency_ns(machine(), o), 20.0);
}

// --------------------------------------------------------- DCBT (Fig 8) ----

TEST(Dcbt, HelpsSmallBlocks) {
  DcbtOptions plain;
  plain.block_bytes = 2048;
  DcbtOptions hinted = plain;
  hinted.use_dcbt = true;
  const double without = dcbt_block_bandwidth_gbs(machine(), plain);
  const double with = dcbt_block_bandwidth_gbs(machine(), hinted);
  // Paper: "more than 25%" for small arrays.
  EXPECT_GT(with, 1.25 * without);
}

TEST(Dcbt, NegligibleForLargeBlocks) {
  DcbtOptions plain;
  plain.block_bytes = 64 * 1024;
  plain.total_bytes = 64ull << 20;
  DcbtOptions hinted = plain;
  hinted.use_dcbt = true;
  const double without = dcbt_block_bandwidth_gbs(machine(), plain);
  const double with = dcbt_block_bandwidth_gbs(machine(), hinted);
  EXPECT_LT(with, 1.10 * without);
}

TEST(Dcbt, BandwidthGrowsWithBlockSize) {
  double prev = 0.0;
  for (const std::uint64_t bs : {512ull, 2048ull, 8192ull, 65536ull}) {
    DcbtOptions o;
    o.block_bytes = bs;
    const double bw = dcbt_block_bandwidth_gbs(machine(), o);
    EXPECT_GE(bw, prev * 0.95) << "block " << bs;
    prev = bw;
  }
}

TEST(Dcbt, RejectsSubLineBlocks) {
  DcbtOptions o;
  o.block_bytes = 64;
  EXPECT_THROW(dcbt_block_bandwidth_gbs(machine(), o),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// The BatchStats p8bench and p8trace report, pinned for three chases
// replayed through ChunkedReplayer.  l1_fast_hits counts L1 hits on
// the page of the previous translation with no prefetch covering the
// line.

TEST(ReplayStats, ChaseFastAndPrefetchedHitsArePinned) {
  struct Case {
    std::uint64_t ws;
    ChasePattern pattern;
    int dscr;
    std::uint64_t accesses, l1_fast_hits, prefetched_hits;
  };
  for (const Case& c : {Case{kib(32), ChasePattern::kRandom, 1, 768, 512, 0},
                        Case{kib(32), ChasePattern::kForwardStride, 2, 768,
                             512, 253},
                        Case{kib(256), ChasePattern::kForwardStride, 2, 6144,
                             0, 2045}}) {
    SCOPED_TRACE(testing::Message() << "ws " << c.ws << " dscr " << c.dscr);
    ChaseOptions o;
    o.working_set_bytes = c.ws;
    o.pattern = c.pattern;
    o.warm_accesses = o.measure_accesses = 1u << 16;
    sim::ProbeOptions probe_options;
    probe_options.page_bytes = o.page_bytes;  // 64 KB
    probe_options.dscr = c.dscr;
    sim::LatencyProbe probe = machine().probe(probe_options);
    trace::ChunkedReplayer sink(probe, 1000);
    emit_chase_trace(machine().spec().processor.cache_line_bytes, o, sink);
    sink.flush();
    EXPECT_EQ(sink.stats().accesses, c.accesses);
    EXPECT_EQ(sink.stats().l1_fast_hits, c.l1_fast_hits);
    EXPECT_EQ(sink.stats().prefetched_hits, c.prefetched_hits);
  }
}

}  // namespace
}  // namespace p8::ubench
