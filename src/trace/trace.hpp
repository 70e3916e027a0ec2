// Binary access-trace format: record once, replay anywhere, any size.
//
// The workload drivers and the `p8trace` CLI speak this format to move
// address streams out of RAM and onto disk.  Design goals, in order:
//
//  * Out-of-core replay.  A trace with billions of accesses must
//    stream through `LatencyProbe::access_batch` with peak memory
//    bounded by one chunk, never by the trace length.  The file is
//    therefore chunked: every chunk is independently decodable (the
//    delta predictor resets at each chunk start) and the directory
//    carries per-chunk byte offsets and record counts, so a reader
//    needs exactly one chunk's bytes and one chunk's decoded records
//    in memory at a time.
//
//  * Compactness.  Access patterns are overwhelmingly local, so
//    addresses are stored as zigzag-encoded deltas from the previous
//    record's address, LEB128-varint packed, with the record op in
//    the low two bits of the first varint.  A unit-stride scan costs
//    ~2 bytes per access instead of 8.
//
//  * Hostile-input safety.  Truncated files, bad magic, wrong
//    versions, chunk offsets past EOF, inflated record counts and
//    flipped payload bytes are all rejected with a structured
//    TraceError carrying the byte offset and the reason — never a
//    silent short replay, never undefined behaviour.
//
// File layout (all integers little-endian):
//
//   [header, 32 B]    "P8TRACE1" | u32 version | u32 chunk_records |
//                     u64 total_records | u64 total_accesses
//   [chunks ...]      back-to-back varint record streams
//   [directory]       per chunk: u64 offset | u32 records | u32 accesses
//   [footer, 32 B]    u64 dir_offset | u64 chunk_count |
//                     u64 fnv1a(chunks..directory) | "P8TRCEND"
//
// The checksum excludes the header (its record totals are patched in
// place after the sum is sealed); every header field is individually
// validated and cross-checked against the directory sums instead.
//
// Record encoding inside a chunk (prev resets to 0 per chunk):
//
//   key = varint((payload << 2) | op)
//   op 0 kAccess:   payload = zigzag(addr - prev);           prev = addr
//   op 1 kDcbtHint: payload = zigzag(start - prev);          prev = start
//                   then varint(length_bytes), u8 flags (bit0 descending)
//   op 2 kDcbtStop: payload = zigzag(addr - prev);           prev = addr
//   op 3 kMark:     payload = mark id;                       prev unchanged
//
// Marks let a recorded workload carry its measurement boundaries (the
// warm/measure split of a chase, the t0 of a bandwidth walk) inside
// the trace, so a file replay reports the same windows the live
// driver does.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace p8::trace {

inline constexpr char kMagic[8] = {'P', '8', 'T', 'R', 'A', 'C', 'E', '1'};
inline constexpr char kEndMagic[8] = {'P', '8', 'T', 'R', 'C', 'E', 'N', 'D'};
inline constexpr std::uint32_t kVersion = 1;
inline constexpr std::size_t kHeaderBytes = 32;
inline constexpr std::size_t kDirEntryBytes = 16;
inline constexpr std::size_t kFooterBytes = 32;
/// Default records per chunk: 64 Ki records decode into a ~512 KB
/// address buffer — far below any cache level the simulator models,
/// and the bound on replay memory however large the file is.
inline constexpr std::uint32_t kDefaultChunkRecords = 1u << 16;

/// Record operations; values are the on-disk op bits.
enum class TraceOp : std::uint8_t {
  kAccess = 0,
  kDcbtHint = 1,
  kDcbtStop = 2,
  kMark = 3,
};

/// One decoded trace record.
struct TraceRecord {
  TraceOp op = TraceOp::kAccess;
  std::uint64_t addr = 0;         ///< access/stop address, hint start
  std::uint64_t length_bytes = 0; ///< kDcbtHint only
  bool descending = false;        ///< kDcbtHint only
  std::uint64_t mark = 0;         ///< kMark only

  bool operator==(const TraceRecord&) const = default;
};

/// Structured trace-file error: what went wrong, and where.  The byte
/// offset points at the field (or the record byte) that failed
/// validation, so a corrupted file is diagnosable with a hex dump.
class TraceError : public std::runtime_error {
 public:
  TraceError(const std::string& path, std::string reason,
             std::uint64_t byte_offset)
      : std::runtime_error(path + ": " + reason + " (at byte " +
                           std::to_string(byte_offset) + ")"),
        reason_(std::move(reason)),
        byte_offset_(byte_offset) {}

  const std::string& reason() const { return reason_; }
  std::uint64_t byte_offset() const { return byte_offset_; }

 private:
  std::string reason_;
  std::uint64_t byte_offset_;
};

/// Consumer of a workload's access stream.  The generators in
/// src/ubench emit through this interface, so the same generation code
/// records to a file (TraceWriter), streams straight into a probe
/// (ChunkedReplayer) or does both without ever materializing the
/// stream.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// One demand load.
  virtual void access(std::uint64_t addr) = 0;

  /// DCBT stream hint covering [start, start + length_bytes).
  virtual void dcbt_hint(std::uint64_t start, std::uint64_t length_bytes,
                         bool descending) = 0;

  /// DCBT stop for the stream covering addr.
  virtual void dcbt_stop(std::uint64_t addr) = 0;

  /// Measurement marker (e.g. the warm/measure boundary).
  virtual void mark(std::uint64_t id) = 0;
};

/// FNV-1a fold over a byte range, seeded with `h` (use kFnvOffset to
/// start a fresh sum) — the footer checksum.
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
inline std::uint64_t fnv1a(const void* data, std::size_t len,
                           std::uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace p8::trace
