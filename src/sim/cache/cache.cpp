#include "sim/cache/cache.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common/contract.hpp"
#include "common/error.hpp"

namespace p8::sim {

namespace {

/// Every valid way in a set must carry a distinct LRU stamp — two equal
/// stamps would make the replacement victim depend on scan order rather
/// than recency, silently breaking true-LRU.  Quadratic in ways, so
/// only ever called from contract checks.
template <typename Entries>
bool lru_stamps_distinct(const Entries& entries, std::uint64_t base,
                         unsigned ways, std::uint32_t valid_bit) {
  for (unsigned a = 0; a < ways; ++a) {
    if (!(entries[base + a].meta & valid_bit)) continue;
    for (unsigned b = a + 1; b < ways; ++b) {
      if (!(entries[base + b].meta & valid_bit)) continue;
      if (entries[base + a].lru == entries[base + b].lru) return false;
    }
  }
  return true;
}

}  // namespace

SetAssocCache::SetAssocCache(std::uint64_t capacity_bytes, unsigned ways,
                             std::uint64_t line_bytes)
    : capacity_(capacity_bytes), ways_(ways), line_bytes_(line_bytes) {
  P8_REQUIRE(ways_ >= 1, "cache needs at least one way");
  P8_REQUIRE(line_bytes_ > 0 && std::has_single_bit(line_bytes_),
             "line size must be a power of two");
  P8_REQUIRE(capacity_ % (static_cast<std::uint64_t>(ways_) * line_bytes_) == 0,
             "capacity must be a whole number of sets");
  line_shift_ = static_cast<std::uint64_t>(std::countr_zero(line_bytes_));
  sets_ = capacity_ / (static_cast<std::uint64_t>(ways_) * line_bytes_);
  P8_REQUIRE(sets_ >= 1, "capacity too small for the given geometry");
  sets_pow2_ = std::has_single_bit(sets_);
  if (sets_pow2_) {
    set_mask_ = sets_ - 1;
    set_shift_ = static_cast<unsigned>(std::countr_zero(sets_));
  } else {
    // ceil(2^64 / sets_); exact because a non-power-of-two never
    // divides 2^64.  quot() is exact for line <= ~2^63 / sets_, far
    // beyond any address the simulator produces; larger values take
    // the hardware-divide fallback.
    inv_sets_ = ~std::uint64_t{0} / sets_ + 1;
    div_safe_ = (~std::uint64_t{0} / sets_) >> 1;
  }
  entries_.resize(sets_ * ways_);
  P8_ENSURE(sets_ * ways_ * line_bytes_ == capacity_,
            "derived geometry must tile the capacity exactly");
  P8_ENSURE(entries_.size() == sets_ * ways_,
            "entry array must cover every (set, way) pair");
  P8_ENSURE(resident_lines() == 0, "a fresh cache must be empty");
}

std::uint64_t SetAssocCache::scan_set(std::uint64_t base, std::uint32_t want,
                                      std::uint64_t& victim,
                                      bool& victim_invalid) const {
  std::uint64_t invalid = kNoEntry;
  std::uint64_t oldest = base;
  // Tracking the running minimum in a register (seeded with way 0,
  // which never beats itself) instead of re-reading the victim's LRU
  // reproduces the historical rescanning code exactly: invalid ways
  // never enter the minimum fold, and whenever the minimum matters —
  // no invalid way exists — way 0 is valid and a legitimate seed.
  std::uint32_t min_lru = entries_[base].lru;
  for (unsigned w = 0; w < ways_; ++w) {
    const std::uint64_t e = base + w;
    const std::uint32_t m = entries_[e].meta;
    if ((m & ~kDirty) == want) return e;
    const std::uint32_t l = entries_[e].lru;
    const bool inv = !(m & kValid);
    invalid = (inv && invalid == kNoEntry) ? e : invalid;
    const bool older = !inv && l < min_lru;
    min_lru = older ? l : min_lru;
    oldest = older ? e : oldest;
  }
  victim_invalid = invalid != kNoEntry;
  victim = victim_invalid ? invalid : oldest;
  return kNoEntry;
}

bool SetAssocCache::touch_install(std::uint64_t addr) {
  std::uint64_t set, tag;
  split(addr, set, tag);
  const std::uint32_t want = meta_of(tag, kValid);
  std::uint64_t victim = kNoEntry;
  bool victim_invalid = false;
  const std::uint64_t e = scan_set(set * ways_, want, victim, victim_invalid);
  if (e != kNoEntry) {
    entries_[e].lru = tick();
    return true;
  }
  entries_[victim] = {want, tick()};
  P8_ENSURE(probe(addr), "touch_install must leave the line resident");
  return false;
}

bool SetAssocCache::touch_slot(std::uint64_t addr, Slot& slot) {
  std::uint64_t set, tag;
  split(addr, set, tag);
  const std::uint32_t want = meta_of(tag, kValid);
  std::uint64_t victim = kNoEntry;
  bool victim_invalid = false;
  const std::uint64_t e = scan_set(set * ways_, want, victim, victim_invalid);
  if (e != kNoEntry) {
    entries_[e].lru = tick();
    return true;
  }
  slot.entry = victim;
  slot.set = set;
  slot.invalid_way = victim_invalid;
  slot.recorded = true;
  P8_ENSURE(slot.entry >= slot.set * ways_ &&
                slot.entry < (slot.set + 1) * ways_,
            "recorded victim way must lie inside the recorded set");
  return false;
}

std::optional<SetAssocCache::Eviction> SetAssocCache::install_line_at(
    const Slot& slot, std::uint64_t addr, bool dirty) {
  P8_INVARIANT(slot.recorded,
               "install_line_at needs a slot recorded by a touch_slot miss");
  P8_INVARIANT(slot.set == set_of(addr),
               "slot was recorded for a different set than addr maps to");
  P8_INVARIANT(!probe(addr),
               "line resident at install_line_at: the recorded scan is stale");
  P8_INVARIANT(slot.invalid_way == !(entries_[slot.entry].meta & kValid),
               "slot victim validity changed since it was recorded");
  std::uint64_t set, tag;
  split(addr, set, tag);
  const std::uint64_t e = slot.entry;
  std::optional<Eviction> evicted;
  if (!slot.invalid_way)
    evicted = Eviction{line_addr(slot.set, tag_bits(entries_[e].meta)),
                       (entries_[e].meta & kDirty) != 0};
  entries_[e] = {meta_of(tag, kValid | (dirty ? kDirty : 0)), tick()};
  P8_ENSURE(probe(addr), "install_line_at must leave the line resident");
  P8_ENSURE(lru_stamps_distinct(entries_, slot.set * ways_, ways_, kValid),
            "LRU stamps must stay distinct within the installed set");
  return evicted;
}

std::optional<bool> SetAssocCache::take(std::uint64_t addr) {
  const std::uint64_t e = find_way(addr);
  if (e == kNoEntry) return std::nullopt;
  const bool dirty = (entries_[e].meta & kDirty) != 0;
  entries_[e].meta = 0;
  P8_ENSURE(!probe(addr), "take must remove the line it returned");
  return dirty;
}

SetAssocCache::AccessResult SetAssocCache::access(std::uint64_t addr) {
  if (touch(addr)) return {true, std::nullopt};
  return {false, install(addr)};
}

std::optional<std::uint64_t> SetAssocCache::install(std::uint64_t addr) {
  const auto ev = install_line(addr, /*dirty=*/false);
  if (!ev) return std::nullopt;
  return ev->line;
}

std::optional<SetAssocCache::Eviction> SetAssocCache::install_line(
    std::uint64_t addr, bool dirty) {
  std::uint64_t set, tag;
  split(addr, set, tag);
  const std::uint32_t want = meta_of(tag, kValid);
  std::uint64_t victim = kNoEntry;
  bool victim_invalid = false;
  // Reuse an existing entry (refresh), then an invalid way, then LRU.
  const std::uint64_t e = scan_set(set * ways_, want, victim, victim_invalid);
  if (e != kNoEntry) {
    entries_[e].lru = tick();
    if (dirty) entries_[e].meta |= kDirty;
    return std::nullopt;
  }
  std::optional<Eviction> evicted;
  if (!victim_invalid)
    evicted = Eviction{line_addr(set, tag_bits(entries_[victim].meta)),
                       (entries_[victim].meta & kDirty) != 0};
  entries_[victim] = {want | (dirty ? kDirty : 0), tick()};
  P8_ENSURE(probe(addr), "install_line must leave the line resident");
  P8_ENSURE(!evicted || evicted->line != (addr >> line_shift_ << line_shift_),
            "install_line must never report the installed line as evicted");
  P8_ENSURE(lru_stamps_distinct(entries_, set * ways_, ways_, kValid),
            "LRU stamps must stay distinct within the installed set");
  return evicted;
}

bool SetAssocCache::mark_dirty(std::uint64_t addr) {
  const std::uint64_t e = find_way(addr);
  if (e == kNoEntry) return false;
  entries_[e].meta |= kDirty;
  return true;
}

bool SetAssocCache::is_dirty(std::uint64_t addr) const {
  const std::uint64_t e = find_way(addr);
  return e != kNoEntry && (entries_[e].meta & kDirty) != 0;
}

bool SetAssocCache::invalidate(std::uint64_t addr) {
  const std::uint64_t e = find_way(addr);
  if (e == kNoEntry) return false;
  entries_[e].meta = 0;
  return true;
}

void SetAssocCache::renumber_stamps() {
  // Rank order within each set is all replacement ever compares, so
  // stamps 1..k for a set's k valid ways (invalid ways get 0) keep
  // every victim choice, and a restarted clock at ways_ issues stamps
  // above all of them.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> valid;
  valid.reserve(ways_);
  for (std::uint64_t base = 0; base < entries_.size(); base += ways_) {
    valid.clear();
    for (unsigned w = 0; w < ways_; ++w) {
      Entry& way = entries_[base + w];
      if (way.meta & kValid)
        valid.emplace_back(way.lru, base + w);
      else
        way.lru = 0;
    }
    std::sort(valid.begin(), valid.end());
    std::uint32_t rank = 0;
    for (const auto& [stamp, e] : valid) entries_[e].lru = ++rank;
    P8_ENSURE(lru_stamps_distinct(entries_, base, ways_, kValid),
              "renumbering must keep LRU stamps distinct within a set");
  }
  clock_ = ways_;
}

void SetAssocCache::throw_tag_range(std::uint64_t addr) const {
  char msg[192];
  std::snprintf(msg, sizeof msg,
                "address 0x%" PRIx64 " is outside the %" PRIu64
                "-set, %" PRIu64 "-byte-line cache's reach: its tag "
                "needs more than %u bits",
                addr, sets_, line_bytes_, kTagBits);
  throw std::invalid_argument(msg);
}

void SetAssocCache::clear() {
  std::fill(entries_.begin(), entries_.end(), Entry{});
  clock_ = 0;
  P8_ENSURE(resident_lines() == 0, "clear must leave no resident lines");
}

std::uint64_t SetAssocCache::resident_lines() const {
  std::uint64_t n = 0;
  for (const auto& e : entries_) n += e.meta & kValid;
  return n;
}

}  // namespace p8::sim
