#include "trace/replay.hpp"

#include <span>

#include "common/error.hpp"
#include "trace/reader.hpp"

namespace p8::trace {

ChunkedReplayer::ChunkedReplayer(sim::LatencyProbe& probe,
                                 std::size_t buffer_records)
    : probe_(probe), capacity_(buffer_records) {
  P8_REQUIRE(capacity_ >= 1, "replay buffer must hold at least one access");
  buffer_.reserve(capacity_);
}

void ChunkedReplayer::access(std::uint64_t addr) {
  buffer_.push_back(addr);
  if (buffer_.size() >= capacity_) flush();
}

void ChunkedReplayer::dcbt_hint(std::uint64_t start, std::uint64_t length_bytes,
                                bool descending) {
  flush();
  probe_.dcbt_hint(start, length_bytes, descending);
}

void ChunkedReplayer::dcbt_stop(std::uint64_t addr) {
  flush();
  probe_.dcbt_stop(addr);
}

void ChunkedReplayer::mark(std::uint64_t id) {
  flush();
  marks_.push_back({id, probe_.now_ns(), stats_.accesses});
}

void ChunkedReplayer::flush() {
  if (buffer_.empty()) return;
  probe_.access_batch(std::span<const std::uint64_t>(buffer_), stats_);
  buffer_.clear();
}

std::optional<ChunkedReplayer::Mark> ChunkedReplayer::find_mark(
    std::uint64_t id) const {
  for (const Mark& m : marks_)
    if (m.id == id) return m;
  return std::nullopt;
}

ReplayResult replay_trace(TraceReader& reader, sim::LatencyProbe& probe) {
  ChunkedReplayer sink(probe, reader.chunk_records());
  std::vector<TraceRecord> chunk;
  ReplayResult result;
  while (reader.next_chunk(chunk)) {
    for (const TraceRecord& rec : chunk) {
      switch (rec.op) {
        case TraceOp::kAccess:
          sink.access(rec.addr);
          ++result.accesses;
          break;
        case TraceOp::kDcbtHint:
          sink.dcbt_hint(rec.addr, rec.length_bytes, rec.descending);
          break;
        case TraceOp::kDcbtStop:
          sink.dcbt_stop(rec.addr);
          break;
        case TraceOp::kMark:
          sink.mark(rec.mark);
          break;
      }
      ++result.records;
    }
  }
  sink.flush();
  result.stats = sink.stats();
  result.marks = sink.marks();
  return result;
}

}  // namespace p8::trace
