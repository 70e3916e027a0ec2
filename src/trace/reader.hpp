// TraceReader: streaming, validating reader for the chunked binary
// trace format (see trace.hpp).  Opening a file validates the header,
// directory, footer and checksum up front; next_chunk() then decodes
// one chunk at a time into a caller-owned buffer, so peak memory is
// bounded by the chunk size no matter how large the trace is.
//
// Every malformed input — truncation, bad magic, wrong version, chunk
// offsets past EOF, inflated record counts, flipped payload bytes —
// raises a TraceError carrying the byte offset and reason.  A file
// that opens cleanly never replays short.
#pragma once

#include <cstdio>
#include <vector>

#include "trace/trace.hpp"

namespace p8::trace {

class TraceReader final {
 public:
  /// Opens and fully validates `path`, including one sequential pass
  /// that checks the footer checksum.  Throws TraceError on any
  /// structural defect.
  explicit TraceReader(const std::string& path);
  ~TraceReader();

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  /// Decodes the next chunk into `out` (cleared first).  Returns false
  /// at end of trace.  Throws TraceError when the chunk's bytes do not
  /// decode to exactly the record/access counts the directory claims.
  bool next_chunk(std::vector<TraceRecord>& out);

  /// Rewinds to the first chunk.
  void rewind() { next_chunk_ = 0; }

  std::uint64_t total_records() const { return total_records_; }
  std::uint64_t total_accesses() const { return total_accesses_; }
  std::uint64_t chunk_count() const { return dir_.size(); }
  std::uint32_t chunk_records() const { return chunk_records_; }
  std::uint64_t file_bytes() const { return file_bytes_; }
  const std::string& path() const { return path_; }

 private:
  struct DirEntry {
    std::uint64_t offset = 0;
    std::uint32_t records = 0;
    std::uint32_t accesses = 0;
    std::uint64_t byte_len = 0;  ///< derived: next offset - offset
  };

  void load_and_validate();
  /// Reads [offset, offset+len) of the file into `out`.
  void read_span(std::uint64_t offset, std::size_t len,
                 std::vector<unsigned char>& out);
  [[noreturn]] void fail(const std::string& reason,
                         std::uint64_t byte_offset) const;

  std::string path_;
  std::FILE* file_ = nullptr;
  std::uint64_t file_bytes_ = 0;
  std::uint32_t chunk_records_ = 0;
  std::uint64_t total_records_ = 0;
  std::uint64_t total_accesses_ = 0;
  std::vector<DirEntry> dir_;
  std::size_t next_chunk_ = 0;
  std::vector<unsigned char> chunk_buf_;  ///< reused per-chunk byte buffer
};

}  // namespace p8::trace
