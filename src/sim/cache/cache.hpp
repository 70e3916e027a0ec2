// Set-associative cache model with true-LRU replacement.
//
// This is the building block for every level of the POWER8 hierarchy
// (L1D, L2, local L3, the NUCA remote-L3 pool, and the Centaur L4) and
// for the TLB.  It tracks tags only — the simulator cares about
// hit/miss behaviour and evictions (for victim forwarding), not data
// contents.
//
// Layout is one flat array of 8-byte ways, row-major by set: each way
// is a 32-bit {tag << 2 | state} word beside a 32-bit LRU stamp, so a
// 16-way victim-pool or L4 row is 128 B (two host lines) and an 8-way
// row one host line.  A way scan walks one densely packed stream, and
// set/tag extraction uses shift/mask when the set count is a power of
// two — the common case for every POWER8 level — falling back to a
// multiply-high only for irregular geometries.  Two guards keep the
// narrow layout exact: split() rejects any address whose tag would
// not fit in 30 bits (so no two lines can alias), and the 32-bit LRU
// clock renumbers every stamp by rank before it would wrap (so
// replacement stays exactly true-LRU).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/contract.hpp"
#include "common/hugealloc.hpp"

namespace p8::sim {

class SetAssocCache {
 public:
  /// `capacity_bytes` must be a multiple of `ways * line_bytes`;
  /// `line_bytes` must be a power of two.
  SetAssocCache(std::uint64_t capacity_bytes, unsigned ways,
                std::uint64_t line_bytes);

  std::uint64_t capacity_bytes() const { return capacity_; }
  unsigned ways() const { return ways_; }
  std::uint64_t line_bytes() const { return line_bytes_; }
  std::uint64_t sets() const { return sets_; }

  /// Looks up the line containing `addr` WITHOUT modifying state.
  bool probe(std::uint64_t addr) const { return find_way(addr) != kNoEntry; }

  /// Looks up and, on hit, promotes to MRU.  Does not allocate.
  bool touch(std::uint64_t addr) {
    const std::uint64_t e = find_way(addr);
    if (e == kNoEntry) return false;
    entries_[e].lru = tick();
    return true;
  }

  /// Sentinel for slot_victim_line: no line would be evicted.
  static constexpr std::uint64_t kNoVictim = ~std::uint64_t{0};

  /// Where a miss's subsequent install would land, recorded by
  /// touch_slot() so install_line_at() can reuse the way scan instead
  /// of repeating it.  Only meaningful while the recorded set is
  /// untouched (see install_line_at).
  struct Slot {
    std::uint64_t entry = 0;  ///< flat index of the victim way
    std::uint64_t set = 0;    ///< set the scan covered
    bool invalid_way = false;  ///< victim is an invalid (empty) way
    bool recorded = false;     ///< set by a touch_slot() miss
  };

  /// touch() that, on a miss, records in `slot` the way a subsequent
  /// install_line(addr) would claim from this set as it stands (first
  /// invalid way, else the LRU victim).  State changes are exactly
  /// touch()'s.
  bool touch_slot(std::uint64_t addr, Slot& slot);

  /// Line currently held by the slot's victim way, or kNoVictim when
  /// the victim is an invalid way.  Used to prefetch the downstream
  /// set the eviction will cast into, ahead of the install.
  std::uint64_t slot_victim_line(const Slot& slot) const {
    return slot.invalid_way
               ? kNoVictim
               : line_addr(slot.set, tag_bits(entries_[slot.entry].meta));
  }

  /// Set index `addr` maps to — for callers deciding whether an
  /// intervening install collided with a recorded Slot.
  std::uint64_t set_index(std::uint64_t addr) const { return set_of(addr); }

  /// Fused touch-else-install: one way scan that either promotes the
  /// resident line to MRU (returns true) or installs it clean over the
  /// first invalid way, else the LRU victim (returns false).  State
  /// and LRU clocks end up exactly as `touch(addr)` followed — on the
  /// miss — by `install(addr)`, but the set is scanned once instead of
  /// twice.  The eviction is discarded, so this fits the TLB, where
  /// cast-outs have no downstream.
  bool touch_install(std::uint64_t addr);

  /// Fused probe + is_dirty + invalidate: removes the line if present
  /// and returns its dirty state, scanning the set once.  nullopt when
  /// the line was not resident.  LRU clocks are untouched, exactly as
  /// the three separate calls leave them.
  std::optional<bool> take(std::uint64_t addr);

  /// Demand access: on hit promotes to MRU and returns {true, nullopt};
  /// on miss allocates the line and returns {false, evicted_line_addr}
  /// (nullopt when an invalid way was used).
  struct AccessResult {
    bool hit = false;
    std::optional<std::uint64_t> evicted;
  };
  AccessResult access(std::uint64_t addr);

  /// Installs a line (e.g. a victim cast-out from an upper level)
  /// without counting as a demand access.  Returns the evicted line.
  std::optional<std::uint64_t> install(std::uint64_t addr);

  /// A line pushed out by an install, with its dirty state — the
  /// hierarchy uses this to route write-backs.
  struct Eviction {
    std::uint64_t line = 0;
    bool dirty = false;
  };

  /// Like install(), with dirty tracking: the installed line adopts
  /// `dirty` (OR-ed with any existing dirty state on a refresh).
  std::optional<Eviction> install_line(std::uint64_t addr, bool dirty);

  /// install_line(addr, dirty) that reuses `slot` instead of scanning.
  /// ONLY valid when no mutation of this cache has touched slot.set
  /// since the touch_slot() miss that recorded it — then the rescan
  /// would find the identical candidates (addr still absent, same
  /// first-invalid/min-LRU victim) and this produces bit-identical
  /// state, LRU clocks and eviction.  Callers must fall back to
  /// install_line() whenever an intervening install may have landed in
  /// the same set (checked via set_index()).
  std::optional<Eviction> install_line_at(const Slot& slot, std::uint64_t addr,
                                          bool dirty);

  /// Marks the line dirty if present; returns whether it was found.
  bool mark_dirty(std::uint64_t addr);

  /// True if present and dirty.
  bool is_dirty(std::uint64_t addr) const;

  /// Removes the line if present; returns whether it was present.
  bool invalidate(std::uint64_t addr);

  /// Width of the tag a way holds: tags are line addresses shifted
  /// down by the line and set bits, and the way's 32-bit word keeps two
  /// bits for state.  Every cache therefore covers addresses below
  /// 2^30 * sets() * line_bytes() (2^43 for POWER8's 64-set L1); an
  /// address past that throws std::invalid_argument from any lookup.
  static constexpr unsigned kTagBits = 30;

  /// Drops all contents (tags, LRU clocks and the global clock all
  /// reset to zero, so post-clear replacement order cannot be skewed
  /// by pre-clear state).
  void clear();

  /// Number of valid lines currently resident.
  std::uint64_t resident_lines() const;

  /// Hints the host CPU to start pulling in the backing arrays for
  /// `addr`'s set.  The large levels (victim pool, L4) dwarf the host
  /// LLC, so an un-hinted way scan stalls on several memory loads;
  /// issuing the hint while earlier levels are still being searched
  /// overlaps those misses.  Purely a performance hint — no simulator
  /// state is read or written.
  ///
  /// Must stay force-inlined.  GCC models `__builtin_prefetch` as free
  /// of side effects, so an out-of-line copy of this function is
  /// "looping pure"; under -ffinite-loops (C++ default at -O2 and
  /// above) it is plain pure, and a call to a pure `void` function is
  /// dead code — every hint vanished that way.  Inlined, the
  /// prefetches are part of the caller and survive.  The ctest
  /// HostPrefetch.EmittedInReleaseObjects checks the objects.
  [[gnu::always_inline]] void prefetch_set(std::uint64_t addr) const {
    const std::uint64_t base = set_of(addr) * ways_;
    // A way scan walks the whole set, so hint every host line the
    // set's entry row spans (8-byte entries, 64-byte host lines).
    for (unsigned w = 0; w < ways_; w += kWaysPerHostLine)
      __builtin_prefetch(&entries_[base + w]);
  }

 private:
  static constexpr std::uint32_t kValid = 1;
  static constexpr std::uint32_t kDirty = 2;
  static constexpr std::uint64_t kNoEntry = ~std::uint64_t{0};

  /// Entry metadata packs the tag and the state bits into one word
  /// ((tag << 2) | state): a way scan issues one load per way instead
  /// of separate tag and state loads.  split() has already checked
  /// that the tag fits in kTagBits, so the packing is lossless.
  static constexpr std::uint32_t meta_of(std::uint64_t tag,
                                         std::uint32_t state) {
    return static_cast<std::uint32_t>(tag << 2) | state;
  }
  static constexpr std::uint64_t tag_bits(std::uint32_t meta) {
    return meta >> 2;
  }

  /// Next LRU stamp.  Before the 32-bit clock would wrap, every stamp
  /// is renumbered by its rank within its set (renumber_stamps), which
  /// keeps each set's recency order and leaves every stamp below the
  /// next one issued — so replacement is exactly true-LRU, at the cost
  /// of one pass over the array per 2^32 ticks.
  std::uint32_t tick() {
    if (clock_ == ~std::uint32_t{0}) [[unlikely]]
      renumber_stamps();
    return ++clock_;
  }
  void renumber_stamps();

  /// Cold path of split(): the address's tag does not fit in kTagBits.
  [[noreturn, gnu::cold, gnu::noinline]] void throw_tag_range(
      std::uint64_t addr) const;

  /// The one way scan behind every mutating lookup: returns the hit
  /// entry, or kNoEntry with `victim` set to the way install_line
  /// would claim (first invalid way, else the first-seen minimum-LRU
  /// valid way) and `victim_invalid` telling which kind it is.  The
  /// candidate folds are branchless (conditional moves) because the
  /// LRU comparison outcome is data-random and mispredicted branches
  /// dominated the scan cost.
  std::uint64_t scan_set(std::uint64_t base, std::uint32_t want,
                         std::uint64_t& victim, bool& victim_invalid) const;

  /// floor(line / sets_) for irregular set counts without a hardware
  /// divide: multiply by the precomputed ceil(2^64 / sets_) and keep
  /// the high word (Granlund–Montgomery).  Exact for line values up to
  /// div_safe_; beyond that (never reached by realistic addresses) it
  /// falls back to the real division.
  std::uint64_t quot(std::uint64_t line) const {
    if (line > div_safe_) return line / sets_;
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(line) * inv_sets_) >> 64);
  }

  /// Set index and tag in one step, sharing the quotient when the set
  /// count is not a power of two (one multiply instead of two
  /// serialized divides on the way-scan critical path).  Every tag is
  /// formed here, so this is where a tag too wide for the way's word
  /// is rejected.
  void split(std::uint64_t addr, std::uint64_t& set, std::uint64_t& tag) const {
    const std::uint64_t line = addr >> line_shift_;
    if (sets_pow2_) {
      set = line & set_mask_;
      tag = line >> set_shift_;
    } else {
      tag = quot(line);
      set = line - tag * sets_;
    }
    if (tag >> kTagBits) [[unlikely]]
      throw_tag_range(addr);
  }

  std::uint64_t set_of(std::uint64_t addr) const {
    const std::uint64_t line = addr >> line_shift_;
    return sets_pow2_ ? (line & set_mask_) : (line - quot(line) * sets_);
  }
  std::uint64_t line_addr(std::uint64_t set, std::uint64_t tag) const {
    const std::uint64_t line =
        sets_pow2_ ? ((tag << set_shift_) | set) : (tag * sets_ + set);
    return line << line_shift_;
  }

  /// Flat entry index of the valid way holding `addr`'s line, or
  /// kNoEntry — the one way-scan all the lookup paths share.  Inline:
  /// this scan runs several times per simulated load, and the call
  /// overhead was measurable on the probe hot path.  Masking the dirty
  /// bit out of the packed word makes the hit test one compare.
  std::uint64_t find_way(std::uint64_t addr) const {
    std::uint64_t set, tag;
    split(addr, set, tag);
    const std::uint32_t want = meta_of(tag, kValid);
    const std::uint64_t base = set * ways_;
    for (unsigned w = 0; w < ways_; ++w)
      if ((entries_[base + w].meta & ~kDirty) == want) return base + w;
    return kNoEntry;
  }

  std::uint64_t capacity_;
  unsigned ways_;
  std::uint64_t line_bytes_;
  std::uint64_t line_shift_;
  std::uint64_t sets_;
  bool sets_pow2_;
  std::uint64_t set_mask_ = 0;   // sets_ - 1 when sets_ is a power of two
  unsigned set_shift_ = 0;       // log2(sets_) when sets_ is a power of two
  std::uint64_t inv_sets_ = 0;   // ceil(2^64 / sets_) when not a power of two
  std::uint64_t div_safe_ = 0;   // largest line quot() handles exactly
  std::uint32_t clock_ = 0;  // last stamp issued, see tick()
  /// Lets sim_cache_test start the clock just short of its wrap: a
  /// real run there takes 2^32 ticks, about 16 s on a 2.1 GHz host.
  friend struct CacheClockAccess;
  /// One way's metadata and LRU stamp side by side: a way scan reads
  /// both, and keeping them in one row means a set probe touches one
  /// host page and one hardware-prefetch stream instead of two — the
  /// victim-pool/L4 rows are tens of MB probed in data-dependent
  /// order, where the extra page was a real host-dTLB miss.  At eight
  /// bytes a way, an e870 probe's arrays — the bytes every probe
  /// construction zero-fills — come to ~12 MB.
  struct Entry {
    std::uint32_t meta = 0;  ///< (tag << 2) | state, see meta_of()
    std::uint32_t lru = 0;   ///< larger = more recently used
  };
  P8_STATIC_REQUIRE(sizeof(Entry) == 8, "a way is two 32-bit words");
  static constexpr unsigned kWaysPerHostLine = 64 / sizeof(Entry);
  /// sets_ * ways_ entries, row-major by set; arrays of 2 MiB or more
  /// get their own huge-page mapping, returned to the kernel when the
  /// cache is destroyed (see hugealloc.hpp).
  std::vector<Entry, common::HugePageAllocator<Entry>> entries_;
};

}  // namespace p8::sim
