#include "trace/reader.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace p8::trace {

namespace {

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace

TraceReader::TraceReader(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr)
    throw TraceError(path, std::string("cannot open: ") + std::strerror(errno),
                     0);
  try {
    load_and_validate();
  } catch (...) {
    std::fclose(file_);
    throw;
  }
}

TraceReader::~TraceReader() { std::fclose(file_); }

void TraceReader::fail(const std::string& reason,
                       std::uint64_t byte_offset) const {
  throw TraceError(path_, reason, byte_offset);
}

void TraceReader::read_span(std::uint64_t offset, std::size_t len,
                            std::vector<unsigned char>& out) {
  out.resize(len);
  if (len == 0) return;
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0)
    fail(std::string("seek failed: ") + std::strerror(errno), offset);
  if (std::fread(out.data(), 1, len, file_) != len)
    fail("unexpected end of file", offset);
}

void TraceReader::load_and_validate() {
  if (std::fseek(file_, 0, SEEK_END) != 0)
    fail(std::string("seek failed: ") + std::strerror(errno), 0);
  const long end = std::ftell(file_);
  if (end < 0) fail(std::string("tell failed: ") + std::strerror(errno), 0);
  file_bytes_ = static_cast<std::uint64_t>(end);

  if (file_bytes_ < kHeaderBytes + kFooterBytes)
    fail("file truncated: smaller than header + footer", file_bytes_);

  std::vector<unsigned char> buf;

  // Header.
  read_span(0, kHeaderBytes, buf);
  if (std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0)
    fail("bad magic: not a P8TRACE1 file", 0);
  const std::uint32_t version = get_u32(buf.data() + 8);
  if (version != kVersion)
    fail("unsupported trace version " + std::to_string(version), 8);
  chunk_records_ = get_u32(buf.data() + 12);
  if (chunk_records_ == 0) fail("header chunk_records is zero", 12);
  total_records_ = get_u64(buf.data() + 16);
  total_accesses_ = get_u64(buf.data() + 24);
  if (total_accesses_ > total_records_)
    fail("header claims more accesses than records", 24);

  // Footer.
  const std::uint64_t footer_at = file_bytes_ - kFooterBytes;
  read_span(footer_at, kFooterBytes, buf);
  if (std::memcmp(buf.data() + 24, kEndMagic, sizeof(kEndMagic)) != 0)
    fail("bad footer magic: file truncated or not finished", footer_at + 24);
  const std::uint64_t dir_offset = get_u64(buf.data());
  const std::uint64_t chunk_count = get_u64(buf.data() + 8);
  const std::uint64_t footer_checksum = get_u64(buf.data() + 16);

  if (dir_offset < kHeaderBytes || dir_offset > footer_at)
    fail("directory offset outside file", footer_at);
  const std::uint64_t dir_bytes = footer_at - dir_offset;
  if (chunk_count > dir_bytes / kDirEntryBytes ||
      chunk_count * kDirEntryBytes != dir_bytes)
    fail("directory size does not match chunk count", footer_at + 8);

  // Directory: offsets must tile [header, dir_offset) exactly, in
  // order, and the per-chunk counts must sum to the header totals.
  read_span(dir_offset, dir_bytes, buf);
  dir_.clear();
  dir_.reserve(chunk_count);
  std::uint64_t expect_offset = kHeaderBytes;
  std::uint64_t sum_records = 0;
  std::uint64_t sum_accesses = 0;
  for (std::uint64_t i = 0; i < chunk_count; ++i) {
    const unsigned char* e = buf.data() + i * kDirEntryBytes;
    const std::uint64_t entry_at = dir_offset + i * kDirEntryBytes;
    DirEntry d;
    d.offset = get_u64(e);
    d.records = get_u32(e + 8);
    d.accesses = get_u32(e + 12);
    if (d.offset != expect_offset)
      fail("chunk " + std::to_string(i) + " offset " +
               std::to_string(d.offset) + " leaves a gap or overlap",
           entry_at);
    if (d.offset >= dir_offset)
      fail("chunk " + std::to_string(i) + " offset past end of chunk data",
           entry_at);
    if (d.records == 0 || d.records > chunk_records_)
      fail("chunk " + std::to_string(i) + " record count " +
               std::to_string(d.records) + " outside [1, chunk_records]",
           entry_at + 8);
    if (d.accesses > d.records)
      fail("chunk " + std::to_string(i) + " claims more accesses than records",
           entry_at + 12);
    dir_.push_back(d);
    sum_records += d.records;
    sum_accesses += d.accesses;
    if (i + 1 < chunk_count) {
      // byte_len is the gap to the next entry's offset; peek it.
      const std::uint64_t next_off = get_u64(e + kDirEntryBytes);
      if (next_off <= d.offset)
        fail("chunk offsets not strictly increasing", entry_at);
      dir_.back().byte_len = next_off - d.offset;
      expect_offset = next_off;
    } else {
      dir_.back().byte_len = dir_offset - d.offset;
      if (dir_.back().byte_len == 0)
        fail("last chunk is empty", entry_at);
    }
  }
  if (chunk_count == 0 && dir_offset != kHeaderBytes)
    fail("chunk data present but directory lists no chunks", kHeaderBytes);
  if (sum_records != total_records_)
    fail("directory record sum " + std::to_string(sum_records) +
             " does not match header total " + std::to_string(total_records_),
         16);
  if (sum_accesses != total_accesses_)
    fail("directory access sum " + std::to_string(sum_accesses) +
             " does not match header total " + std::to_string(total_accesses_),
         24);

  // The checksum covers chunks + directory (the header is excluded:
  // its totals are patched after the writer seals the sum).
  if (std::fseek(file_, static_cast<long>(kHeaderBytes), SEEK_SET) != 0)
    fail(std::string("seek failed: ") + std::strerror(errno), kHeaderBytes);
  std::vector<unsigned char> block(1u << 16);
  std::uint64_t h = kFnvOffset;
  std::uint64_t left = footer_at - kHeaderBytes;
  while (left > 0) {
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(left, block.size()));
    if (std::fread(block.data(), 1, want, file_) != want)
      fail("unexpected end of file while checksumming", footer_at - left);
    h = fnv1a(block.data(), want, h);
    left -= want;
  }
  if (h != footer_checksum)
    fail("footer checksum mismatch: file is corrupt", footer_at + 16);
}

bool TraceReader::next_chunk(std::vector<TraceRecord>& out) {
  out.clear();
  if (next_chunk_ >= dir_.size()) return false;
  const DirEntry& d = dir_[next_chunk_];
  ++next_chunk_;

  read_span(d.offset, static_cast<std::size_t>(d.byte_len), chunk_buf_);
  const unsigned char* p = chunk_buf_.data();
  const std::size_t len = static_cast<std::size_t>(d.byte_len);
  std::size_t pos = 0;

  const auto get_varint = [&](const char* what) -> std::uint64_t {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos >= len)
        fail(std::string("truncated varint (") + what + ")", d.offset + pos);
      const unsigned char b = p[pos++];
      if (shift >= 63 && b > 1)
        fail(std::string("varint overflows 64 bits (") + what + ")",
             d.offset + pos - 1);
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  };

  out.reserve(d.records);
  std::uint64_t prev = 0;  // the delta predictor resets per chunk
  std::uint32_t accesses = 0;
  for (std::uint32_t r = 0; r < d.records; ++r) {
    const std::uint64_t key = get_varint("record key");
    const auto op = static_cast<TraceOp>(key & 3);
    const std::uint64_t payload = key >> 2;
    TraceRecord rec;
    rec.op = op;
    switch (op) {
      case TraceOp::kAccess:
        rec.addr = prev + static_cast<std::uint64_t>(unzigzag(payload));
        prev = rec.addr;
        ++accesses;
        break;
      case TraceOp::kDcbtHint: {
        rec.addr = prev + static_cast<std::uint64_t>(unzigzag(payload));
        rec.length_bytes = get_varint("hint length");
        if (pos >= len) fail("truncated hint flags", d.offset + pos);
        const unsigned char flags = p[pos++];
        if (flags > 1)
          fail("bad hint flags byte " + std::to_string(flags),
               d.offset + pos - 1);
        rec.descending = flags != 0;
        prev = rec.addr;
        break;
      }
      case TraceOp::kDcbtStop:
        rec.addr = prev + static_cast<std::uint64_t>(unzigzag(payload));
        prev = rec.addr;
        break;
      case TraceOp::kMark:
        rec.mark = payload;
        break;
    }
    out.push_back(rec);
  }
  if (pos != len)
    fail("chunk has " + std::to_string(len - pos) +
             " trailing bytes past its last record",
         d.offset + pos);
  if (accesses != d.accesses)
    fail("chunk decoded " + std::to_string(accesses) +
             " accesses but directory claims " + std::to_string(d.accesses),
         d.offset);
  return true;
}

}  // namespace p8::trace
