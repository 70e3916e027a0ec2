// Tests for the binary trace format: encode/decode round trips across
// chunk sizes, the hostile-input rejection matrix (every malformed
// file must raise a TraceError with a reason and byte offset, never
// replay short), and the out-of-core equivalence property — a stream
// written to disk and replayed chunk-by-chunk produces bit-identical
// BatchStats, clock and counters to replaying the same stream in
// memory, at chunk size 1, a non-divisor size and a huge size.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "arch/spec.hpp"
#include "proptest.hpp"
#include "sim/counters.hpp"
#include "sim/machine/machine.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"
#include "ubench/workloads.hpp"

namespace p8::trace {
namespace {

const sim::Machine& machine() {
  static const sim::Machine m = sim::Machine(arch::e870());
  return m;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "trace_test_" + name;
}

/// Feeds a decoded record list into any sink — the single generator
/// both the writer and the replayers consume in these tests.
void emit(TraceSink& sink, const std::vector<TraceRecord>& records) {
  for (const TraceRecord& r : records) {
    switch (r.op) {
      case TraceOp::kAccess:
        sink.access(r.addr);
        break;
      case TraceOp::kDcbtHint:
        sink.dcbt_hint(r.addr, r.length_bytes, r.descending);
        break;
      case TraceOp::kDcbtStop:
        sink.dcbt_stop(r.addr);
        break;
      case TraceOp::kMark:
        sink.mark(r.mark);
        break;
    }
  }
}

std::vector<TraceRecord> read_all(TraceReader& reader) {
  std::vector<TraceRecord> all, chunk;
  while (reader.next_chunk(chunk)) {
    EXPECT_LE(chunk.size(), reader.chunk_records());
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  return all;
}

void write_trace(const std::string& path,
                 const std::vector<TraceRecord>& records,
                 std::uint32_t chunk_records) {
  WriterOptions options;
  options.chunk_records = chunk_records;
  TraceWriter writer(path, options);
  emit(writer, records);
  writer.finish();
}

std::vector<unsigned char> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::fseek(f, 0, SEEK_END);
  std::vector<unsigned char> bytes(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  // An empty vector's data() may be null, which fwrite must not get.
  if (!bytes.empty()) {
    EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

void put_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void put_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

// ---------------------------------------------------------------------------
// Round trips.

std::vector<TraceRecord> mixed_records() {
  std::vector<TraceRecord> r;
  r.push_back({TraceOp::kAccess, 4096});
  r.push_back({TraceOp::kAccess, 0});             // negative delta
  r.push_back({TraceOp::kAccess, 1ull << 47});    // multi-byte varint
  r.push_back({TraceOp::kDcbtHint, 8192, 2048, true});
  r.push_back({TraceOp::kAccess, 8192});
  r.push_back({TraceOp::kAccess, 8320});
  r.push_back({TraceOp::kDcbtStop, 8192});
  r.push_back({TraceOp::kMark, 0, 0, false, ubench::kMarkMeasureStart});
  r.push_back({TraceOp::kAccess, 8448});  // prev survives the mark
  r.push_back({TraceOp::kDcbtHint, 1ull << 40, 1ull << 21, false});
  r.push_back({TraceOp::kDcbtStop, 1ull << 40});
  r.push_back({TraceOp::kMark, 0, 0, false, 999});
  r.push_back({TraceOp::kAccess, 128});
  return r;
}

TEST(TraceRoundTrip, AllOpsSurviveEveryChunkSizeAndReadMode) {
  const std::vector<TraceRecord> records = mixed_records();
  const std::uint64_t accesses = static_cast<std::uint64_t>(
      std::count_if(records.begin(), records.end(), [](const TraceRecord& r) {
        return r.op == TraceOp::kAccess;
      }));

  // Chunk size 1 (predictor reset every record), a non-divisor of the
  // record count, and one far larger than the stream.
  for (const std::uint32_t chunk_records : {1u, 3u, 1u << 20}) {
    const std::string path = temp_path("roundtrip.p8t");
    write_trace(path, records, chunk_records);
    TraceReader reader(path);
    EXPECT_EQ(reader.total_records(), records.size());
    EXPECT_EQ(reader.total_accesses(), accesses);
    EXPECT_EQ(reader.chunk_records(), chunk_records);
    EXPECT_EQ(read_all(reader), records) << "chunk_records " << chunk_records;
    // rewind() restarts the stream from chunk 0.
    reader.rewind();
    EXPECT_EQ(read_all(reader), records);
    std::remove(path.c_str());
  }
}

TEST(TraceRoundTrip, WriterAccountsRecordsChunksAndBytes) {
  const std::string path = temp_path("accounting.p8t");
  WriterOptions options;
  options.chunk_records = 4;
  TraceWriter writer(path, options);
  EXPECT_EQ(writer.bytes(), kHeaderBytes);
  for (int i = 0; i < 10; ++i) writer.access(static_cast<std::uint64_t>(i) * 128);
  EXPECT_EQ(writer.records(), 10u);
  EXPECT_EQ(writer.accesses(), 10u);
  EXPECT_EQ(writer.chunks(), 3u);  // 4 + 4 + an open chunk of 2
  writer.finish();
  TraceReader reader(path);
  EXPECT_EQ(reader.chunk_count(), 3u);
  EXPECT_EQ(reader.total_records(), 10u);
  std::remove(path.c_str());
}

TEST(TraceRoundTrip, EmptyTraceRoundTrips) {
  const std::string path = temp_path("empty.p8t");
  write_trace(path, {}, 64);
  TraceReader reader(path);
  EXPECT_EQ(reader.total_records(), 0u);
  EXPECT_EQ(reader.chunk_count(), 0u);
  std::vector<TraceRecord> chunk;
  EXPECT_FALSE(reader.next_chunk(chunk));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Hostile-input rejection.

template <typename Fn>
void expect_trace_error(Fn&& fn, const std::string& reason_substr) {
  try {
    fn();
    FAIL() << "expected TraceError containing \"" << reason_substr << "\"";
  } catch (const TraceError& e) {
    EXPECT_NE(e.reason().find(reason_substr), std::string::npos)
        << "got reason: " << e.reason();
  }
}

/// Bytes of a small, valid, multi-chunk trace.
std::vector<unsigned char> valid_trace_bytes() {
  const std::string path = temp_path("valid.p8t");
  WriterOptions options;
  options.chunk_records = 64;
  TraceWriter writer(path, options);
  for (int i = 0; i < 500; ++i) writer.access(static_cast<std::uint64_t>(i) * 128);
  writer.dcbt_hint(1 << 20, 4096, false);
  writer.dcbt_stop(1 << 20);
  writer.mark(ubench::kMarkMeasureStart);
  writer.finish();
  std::vector<unsigned char> bytes = slurp(path);
  std::remove(path.c_str());
  return bytes;
}

/// Writes `bytes` to a temp file and expects open + full read to fail
/// with the given reason.  Returns the error's byte offset.
std::uint64_t expect_rejected(const std::vector<unsigned char>& bytes,
                              const std::string& reason_substr) {
  const std::string path = temp_path("corrupt.p8t");
  spit(path, bytes);
  std::uint64_t offset = 0;
  try {
    TraceReader reader(path);
    std::vector<TraceRecord> chunk;
    while (reader.next_chunk(chunk)) {
    }
    ADD_FAILURE() << "expected TraceError containing \"" << reason_substr
                  << "\"";
  } catch (const TraceError& e) {
    EXPECT_NE(e.reason().find(reason_substr), std::string::npos)
        << "got reason: " << e.reason();
    offset = e.byte_offset();
  }
  std::remove(path.c_str());
  return offset;
}

TEST(TraceCorruption, TruncationAtAnyPointIsRejected) {
  const std::vector<unsigned char> bytes = valid_trace_bytes();
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{16}, std::size_t{63}, bytes.size() / 2,
        bytes.size() - 1}) {
    const std::vector<unsigned char> cut(bytes.begin(), bytes.begin() + keep);
    const std::string path = temp_path("truncated.p8t");
    spit(path, cut);
    try {
      TraceReader reader(path);
      std::vector<TraceRecord> chunk;
      while (reader.next_chunk(chunk)) {
      }
      ADD_FAILURE() << "truncation to " << keep << " bytes was accepted";
    } catch (const TraceError& e) {
      EXPECT_FALSE(e.reason().empty());
      EXPECT_LE(e.byte_offset(), bytes.size()) << "keep " << keep;
    }
    std::remove(path.c_str());
  }
}

TEST(TraceCorruption, BadMagicIsRejectedAtOffsetZero) {
  std::vector<unsigned char> bytes = valid_trace_bytes();
  bytes[0] ^= 0xff;
  EXPECT_EQ(expect_rejected(bytes, "bad magic"), 0u);
}

TEST(TraceCorruption, WrongVersionIsRejectedAtItsField) {
  std::vector<unsigned char> bytes = valid_trace_bytes();
  put_u32(bytes.data() + 8, kVersion + 1);
  EXPECT_EQ(expect_rejected(bytes, "unsupported trace version"), 8u);
}

TEST(TraceCorruption, ZeroChunkRecordsIsRejected) {
  std::vector<unsigned char> bytes = valid_trace_bytes();
  put_u32(bytes.data() + 12, 0);
  expect_rejected(bytes, "chunk_records is zero");
}

TEST(TraceCorruption, HeaderTotalsAreCrossCheckedAgainstDirectory) {
  // The header is outside the checksum (its totals are patched after
  // the sum is sealed), so an inflated total must be caught by the
  // directory cross-check, not the checksum.
  std::vector<unsigned char> bytes = valid_trace_bytes();
  put_u64(bytes.data() + 16, get_u64(bytes.data() + 16) + 1);
  expect_rejected(bytes, "does not match header total");
}

/// Recomputes the footer checksum over the edited chunks + directory,
/// so only the decoder's own checks stand between the edit and replay.
void reseal_checksum(std::vector<unsigned char>& bytes) {
  const std::size_t footer_at = bytes.size() - kFooterBytes;
  put_u64(bytes.data() + footer_at + 16,
          fnv1a(bytes.data() + kHeaderBytes, footer_at - kHeaderBytes));
}

TEST(TraceCorruption, BadFooterMagicIsRejected) {
  std::vector<unsigned char> bytes = valid_trace_bytes();
  bytes.back() ^= 0xff;
  expect_rejected(bytes, "bad footer magic");
}

TEST(TraceCorruption, DirectoryOffsetPastEofIsRejected) {
  std::vector<unsigned char> bytes = valid_trace_bytes();
  put_u64(bytes.data() + bytes.size() - kFooterBytes, bytes.size() + 1024);
  expect_rejected(bytes, "directory offset outside file");
}

TEST(TraceCorruption, InflatedChunkCountIsRejected) {
  std::vector<unsigned char> bytes = valid_trace_bytes();
  unsigned char* footer = bytes.data() + bytes.size() - kFooterBytes;
  put_u64(footer + 8, get_u64(footer + 8) + 1);
  expect_rejected(bytes, "directory size does not match chunk count");
}

TEST(TraceCorruption, FlippedChunkByteFailsTheChecksum) {
  std::vector<unsigned char> bytes = valid_trace_bytes();
  bytes[kHeaderBytes + 5] ^= 0x40;
  expect_rejected(bytes, "footer checksum mismatch");
}

TEST(TraceCorruption, InflatedDirectoryRecordCountFailsDecode) {
  // Grow the last chunk's directory record count (the last chunk is
  // partial, so the [1, chunk_records] bound still holds; also bump
  // the header total so the structural cross-check passes) and re-seal
  // the checksum: the decoder must notice the chunk's bytes run out
  // before the claimed record count is reached.
  std::vector<unsigned char> bytes = valid_trace_bytes();
  const unsigned char* footer = bytes.data() + bytes.size() - kFooterBytes;
  const std::uint64_t dir_offset = get_u64(footer);
  const std::uint64_t chunk_count = get_u64(footer + 8);
  unsigned char* entry =
      bytes.data() + dir_offset + (chunk_count - 1) * kDirEntryBytes;
  const std::uint32_t records =
      static_cast<std::uint32_t>(entry[8]) | (entry[9] << 8);
  put_u32(entry + 8, records + 1);
  put_u64(bytes.data() + 16, get_u64(bytes.data() + 16) + 1);
  reseal_checksum(bytes);
  expect_rejected(bytes, "truncated varint");
}

TEST(TraceCorruption, ShrunkDirectoryRecordCountLeavesTrailingBytes) {
  std::vector<unsigned char> bytes = valid_trace_bytes();
  const std::uint64_t dir_offset =
      get_u64(bytes.data() + bytes.size() - kFooterBytes);
  unsigned char* entry = bytes.data() + dir_offset;
  const std::uint32_t records =
      static_cast<std::uint32_t>(entry[8]) | (entry[9] << 8);
  ASSERT_GT(records, 1u);
  put_u32(entry + 8, records - 1);
  put_u32(entry + 12, records - 1);  // all records in chunk 0 are accesses
  put_u64(bytes.data() + 16, get_u64(bytes.data() + 16) - 1);
  put_u64(bytes.data() + 24, get_u64(bytes.data() + 24) - 1);
  reseal_checksum(bytes);
  expect_rejected(bytes, "trailing bytes");
}

TEST(TraceCorruption, WrongDirectoryAccessCountFailsDecode) {
  std::vector<unsigned char> bytes = valid_trace_bytes();
  const std::uint64_t dir_offset =
      get_u64(bytes.data() + bytes.size() - kFooterBytes);
  unsigned char* entry = bytes.data() + dir_offset;
  const std::uint32_t accesses =
      static_cast<std::uint32_t>(entry[12]) | (entry[13] << 8);
  ASSERT_GT(accesses, 0u);
  put_u32(entry + 12, accesses - 1);
  put_u64(bytes.data() + 24, get_u64(bytes.data() + 24) - 1);
  reseal_checksum(bytes);
  expect_rejected(bytes, "accesses but directory claims");
}

TEST(TraceCorruption, UnfinishedTraceIsRejected) {
  const std::string path = temp_path("unfinished.p8t");
  {
    WriterOptions options;
    options.chunk_records = 16;
    TraceWriter writer(path, options);
    for (int i = 0; i < 100; ++i)
      writer.access(static_cast<std::uint64_t>(i) * 128);
    // No finish(): the dtor closes the file without directory/footer.
  }
  expect_trace_error([&] { TraceReader reader(path); }, "bad footer magic");
  std::remove(path.c_str());
}

TEST(TraceCorruption, MissingFileReportsCannotOpen) {
  expect_trace_error(
      [&] { TraceReader reader(temp_path("does-not-exist.p8t")); },
      "cannot open");
}

// ---------------------------------------------------------------------------
// The p8trace CLI on a well-formed trace the simulator cannot replay.

TEST(TraceCli, ReplayPastTheCacheTagRangeExitsOneWithAnError) {
  // The second access lies past the e870 caches' reach (2^43 bytes for
  // the 64-set L1): the reader accepts the file, the cache rejects the
  // address, and the tool must report it and exit 1, not abort.
  const std::string path = temp_path("past_tag_range.p8t");
  write_trace(path,
              {{TraceOp::kAccess, 4096},
               {TraceOp::kAccess, std::uint64_t{1} << 50}},
              64);
  const std::string command = std::string(P8TRACE_BIN) +
                              " replay --workload=seq-scan --in=" + path +
                              " 2>&1";
  std::FILE* out = popen(command.c_str(), "r");
  ASSERT_NE(out, nullptr);
  std::string text;
  char buf[256];
  while (std::fgets(buf, sizeof buf, out) != nullptr) text += buf;
  const int status = pclose(out);
  ASSERT_TRUE(WIFEXITED(status)) << text;
  EXPECT_EQ(WEXITSTATUS(status), 1) << text;
  EXPECT_NE(text.find("error: "), std::string::npos) << text;
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Out-of-core replay equivalence.

struct ReplayObservation {
  sim::BatchStats stats;
  std::vector<ChunkedReplayer::Mark> marks;
  double now_ns = 0.0;
  std::string counters_csv;
};

void expect_same_observation(const ReplayObservation& a,
                             const ReplayObservation& b,
                             const std::string& what) {
  EXPECT_EQ(a.stats.accesses, b.stats.accesses) << what;
  EXPECT_EQ(a.stats.l1_fast_hits, b.stats.l1_fast_hits) << what;
  EXPECT_EQ(a.stats.prefetched_hits, b.stats.prefetched_hits) << what;
  EXPECT_EQ(a.stats.busy_ns, b.stats.busy_ns) << what;  // bit-identical
  EXPECT_EQ(a.now_ns, b.now_ns) << what;
  EXPECT_EQ(a.counters_csv, b.counters_csv) << what;
  ASSERT_EQ(a.marks.size(), b.marks.size()) << what;
  for (std::size_t i = 0; i < a.marks.size(); ++i) {
    EXPECT_EQ(a.marks[i].id, b.marks[i].id) << what;
    EXPECT_EQ(a.marks[i].now_ns, b.marks[i].now_ns) << what;
    EXPECT_EQ(a.marks[i].accesses, b.marks[i].accesses) << what;
  }
}

/// In-memory reference: the stream through a ChunkedReplayer on a
/// fresh probe, never touching disk.
ReplayObservation replay_in_memory(const std::vector<TraceRecord>& records,
                                   sim::ProbeOptions options) {
  sim::CounterRegistry counters;
  options.counters = &counters;
  sim::LatencyProbe probe = machine().probe(options);
  ChunkedReplayer sink(probe);
  emit(sink, records);
  sink.flush();
  return {sink.stats(), sink.marks(), probe.now_ns(), counters.to_csv()};
}

/// File-backed replay: write, read back, stream through replay_trace.
ReplayObservation replay_via_file(const std::vector<TraceRecord>& records,
                                  sim::ProbeOptions options,
                                  std::uint32_t chunk_records) {
  const std::string path = temp_path("prop.p8t");
  write_trace(path, records, chunk_records);
  sim::CounterRegistry counters;
  options.counters = &counters;
  sim::LatencyProbe probe = machine().probe(options);
  TraceReader reader(path);
  const ReplayResult result = replay_trace(reader, probe);
  EXPECT_EQ(result.records, records.size());
  std::remove(path.c_str());
  return {result.stats, result.marks, probe.now_ns(), counters.to_csv()};
}

/// Random address streams in the shapes the workloads produce:
/// sequential, strided, pointer-chase and uniform random, with marks
/// and the occasional DCBT hint window sprinkled in.
std::vector<TraceRecord> random_stream(p8::proptest::Gen& gen) {
  const std::uint64_t line = 128;
  const std::uint64_t lines = gen.range(64, 512);
  const std::uint64_t n = gen.range(200, 2000);
  const int kind = gen.int_range(0, 3);

  std::vector<std::uint64_t> addrs;
  addrs.reserve(n);
  switch (kind) {
    case 0:  // sequential scan
      for (std::uint64_t i = 0; i < n; ++i) addrs.push_back(i * line);
      break;
    case 1: {  // strided scan over a wrapped working set
      const std::uint64_t stride = gen.range(2, 64);
      for (std::uint64_t i = 0; i < n; ++i)
        addrs.push_back((i * stride % lines) * line);
      break;
    }
    case 2: {  // pointer chase over a random permutation
      std::vector<std::uint64_t> next(lines);
      std::iota(next.begin(), next.end(), 0);
      for (std::uint64_t i = lines - 1; i > 0; --i)
        std::swap(next[i], next[gen.range(0, i - 1)]);  // Sattolo
      std::uint64_t at = 0;
      for (std::uint64_t i = 0; i < n; ++i) {
        addrs.push_back(at * line);
        at = next[at];
      }
      break;
    }
    default:  // uniform random
      for (std::uint64_t i = 0; i < n; ++i)
        addrs.push_back(gen.range(0, lines - 1) * line);
      break;
  }

  std::vector<TraceRecord> records;
  records.reserve(n + 16);
  bool hinted = false;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!hinted && gen.chance(0.01)) {
      records.push_back(
          {TraceOp::kDcbtHint, addrs[i], gen.range(1, 16) * line,
           gen.chance(0.5)});
      hinted = true;
    } else if (hinted && gen.chance(0.05)) {
      records.push_back({TraceOp::kDcbtStop, records.back().addr});
      hinted = false;
    }
    if (gen.chance(0.005))
      records.push_back({TraceOp::kMark, 0, 0, false, gen.range(1, 8)});
    records.push_back({TraceOp::kAccess, addrs[i]});
  }
  records.push_back(
      {TraceOp::kMark, 0, 0, false, ubench::kMarkMeasureStart});
  return records;
}

TEST(TraceProperty, FileReplayBitIdenticalToInMemoryAtEveryChunkSize) {
  P8_PROP(gen, 25, 0x8f7a6b5c4d3e2f1ull) {
    const std::vector<TraceRecord> records = random_stream(gen);
    sim::ProbeOptions options;
    options.page_bytes =
        gen.chance(0.5) ? 64ull * 1024 : 16ull << 20;
    options.dscr = gen.pick({0, 1, 7});
    const ReplayObservation reference = replay_in_memory(records, options);

    // Chunk size 1, a non-divisor of the stream length, and one far
    // larger than the stream.
    const std::uint32_t sizes[] = {1u, 7u, 1u << 20};
    for (const std::uint32_t chunk_records : sizes) {
      const ReplayObservation observed =
          replay_via_file(records, options, chunk_records);
      expect_same_observation(
          observed, reference,
          "chunk_records " + std::to_string(chunk_records));
    }
  }
}

TEST(TraceProperty, ScalarReplayOfFileMatchesInMemoryClock) {
  // The decoded stream fed one access at a time must land on the same
  // clock as the chunked in-memory replay — ties the codec to the
  // probe's access()/access_batch() equivalence.
  P8_PROP(gen, 8, 0x51de0c0deull) {
    const std::vector<TraceRecord> records = random_stream(gen);
    sim::ProbeOptions options;
    options.dscr = gen.pick({1, 7});
    const ReplayObservation reference = replay_in_memory(records, options);

    const std::string path = temp_path("scalar.p8t");
    write_trace(path, records, 64);
    sim::CounterRegistry counters;
    options.counters = &counters;
    sim::LatencyProbe probe = machine().probe(options);
    ScalarReplayer sink(probe);
    TraceReader reader(path);
    std::vector<TraceRecord> chunk;
    while (reader.next_chunk(chunk)) emit(sink, chunk);
    std::remove(path.c_str());

    EXPECT_EQ(probe.now_ns(), reference.now_ns);
    EXPECT_EQ(sink.accesses(), reference.stats.accesses);
    EXPECT_EQ(counters.to_csv(), reference.counters_csv);
  }
}

// ---------------------------------------------------------------------------
// The registered workloads: recording to a file and replaying it must
// reproduce the in-memory run exactly, marks included.

TEST(TraceWorkloads, FileReplayMatchesInMemoryForEveryRegisteredWorkload) {
  for (const ubench::TraceWorkload& w : ubench::trace_workloads()) {
    const std::uint64_t hint = 20000;
    const std::string path = temp_path("wk_" + w.name + ".p8t");
    {
      WriterOptions options;
      options.chunk_records = 512;
      TraceWriter writer(path, options);
      w.emit(machine(), hint, writer);
      writer.finish();
    }

    sim::ProbeOptions probe_options = w.probe_options;
    sim::CounterRegistry mem_counters;
    probe_options.counters = &mem_counters;
    sim::LatencyProbe mem_probe = machine().probe(probe_options);
    ChunkedReplayer mem_sink(mem_probe, 512);
    w.emit(machine(), hint, mem_sink);
    mem_sink.flush();
    const ReplayObservation reference = {mem_sink.stats(), mem_sink.marks(),
                                         mem_probe.now_ns(),
                                         mem_counters.to_csv()};

    sim::CounterRegistry file_counters;
    probe_options.counters = &file_counters;
    sim::LatencyProbe file_probe = machine().probe(probe_options);
    TraceReader reader(path);
    const ReplayResult result = replay_trace(reader, file_probe);
    const ReplayObservation observed = {result.stats, result.marks,
                                        file_probe.now_ns(),
                                        file_counters.to_csv()};

    expect_same_observation(observed, reference, w.name);
    // Every workload carries its measurement boundary in the trace.
    bool has_measure_mark = false;
    for (const auto& m : result.marks)
      has_measure_mark |= m.id == ubench::kMarkMeasureStart;
    EXPECT_TRUE(has_measure_mark) << w.name;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace p8::trace
