// ChunkedReplayer: a TraceSink that streams accesses into
// LatencyProbe::access_batch through a fixed-size address buffer, so a
// workload generator (or a TraceReader loop) drives the simulator with
// peak memory bounded by the buffer — never by the stream length.
//
// access_batch is an access() loop, so replaying through this sink
// produces exactly the clock, counters and stats of one access() per
// record at any chunk split.
#pragma once

#include <optional>
#include <vector>

#include "sim/machine/latency_probe.hpp"
#include "trace/trace.hpp"

namespace p8::trace {

class TraceReader;

class ChunkedReplayer final : public TraceSink {
 public:
  /// A mark's id, the virtual time at which it was crossed, and how
  /// many accesses had replayed by then — enough to reconstruct any
  /// measurement window (latency = Δns / Δaccesses) from marks alone.
  struct Mark {
    std::uint64_t id = 0;
    double now_ns = 0.0;
    std::uint64_t accesses = 0;
  };

  explicit ChunkedReplayer(sim::LatencyProbe& probe,
                           std::size_t buffer_records = kDefaultChunkRecords);

  void access(std::uint64_t addr) override;
  void dcbt_hint(std::uint64_t start, std::uint64_t length_bytes,
                 bool descending) override;
  void dcbt_stop(std::uint64_t addr) override;
  void mark(std::uint64_t id) override;

  /// Replays any buffered accesses now.  Called automatically when the
  /// buffer fills and before every hint/stop/mark (so hints, stops and
  /// marks land between the same accesses as in the stream); call once
  /// after the last record.
  void flush();

  const sim::BatchStats& stats() const { return stats_; }
  const std::vector<Mark>& marks() const { return marks_; }
  /// The first mark with `id`, if any was crossed.
  std::optional<Mark> find_mark(std::uint64_t id) const;

 private:
  sim::LatencyProbe& probe_;
  std::size_t capacity_;
  std::vector<std::uint64_t> buffer_;
  sim::BatchStats stats_;
  std::vector<Mark> marks_;
};

/// TraceSink that performs one probe.access() per record and ignores
/// marks — a reference the trace tests replay a decoded file through,
/// to pin the codec to the in-memory ChunkedReplayer run.
class ScalarReplayer final : public TraceSink {
 public:
  explicit ScalarReplayer(sim::LatencyProbe& probe) : probe_(probe) {}

  void access(std::uint64_t addr) override {
    probe_.access(addr);
    ++accesses_;
  }
  void dcbt_hint(std::uint64_t start, std::uint64_t length_bytes,
                 bool descending) override {
    probe_.dcbt_hint(start, length_bytes, descending);
  }
  void dcbt_stop(std::uint64_t addr) override { probe_.dcbt_stop(addr); }
  void mark(std::uint64_t) override {}

  std::uint64_t accesses() const { return accesses_; }

 private:
  sim::LatencyProbe& probe_;
  std::uint64_t accesses_ = 0;
};

/// Outcome of a full-file replay.
struct ReplayResult {
  sim::BatchStats stats;
  std::vector<ChunkedReplayer::Mark> marks;
  std::uint64_t records = 0;
  std::uint64_t accesses = 0;
};

/// Streams every chunk of `reader` into `probe`.  Peak memory is one
/// decoded chunk plus one address buffer, both bounded by the file's
/// chunk_records — a trace far larger than RAM replays fine.
ReplayResult replay_trace(TraceReader& reader, sim::LatencyProbe& probe);

}  // namespace p8::trace
