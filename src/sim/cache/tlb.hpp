// Address-translation model: D-ERAT backed by a second-level TLB.
//
// POWER8 translates through a small fully-associative effective-to-real
// address table (ERAT) backed by a larger TLB; a miss in both walks the
// hashed page table.  The paper's Figure 2 attributes the latency spike
// near a 3 MB working set (64 KB pages) to first-level TLB misses:
// 48 entries x 64 KB = 3 MB of reach.  With 16 MB huge pages the reach
// is 768 MB and the spike disappears — exactly the red/blue difference
// in the figure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/cache/cache.hpp"
#include "sim/counters.hpp"

namespace p8::sim {

struct TlbConfig {
  std::uint64_t page_bytes = 64 * 1024;
  unsigned erat_entries = 48;   ///< first-level, fully associative
  unsigned tlb_entries = 2048;  ///< second-level
  unsigned tlb_ways = 4;
  double erat_miss_ns = 4.0;    ///< ERAT miss that hits the TLB
  double walk_ns = 42.0;        ///< full page-table walk
};

/// Result of translating one access.
enum class TlbOutcome { kEratHit, kTlbHit, kWalk };

class Tlb {
 public:
  explicit Tlb(const TlbConfig& config);

  const TlbConfig& config() const { return config_; }

  /// Translates the access at `addr`, updating ERAT/TLB state.
  TlbOutcome translate(std::uint64_t addr);

  /// True when `addr` lies on the page the previous translate()
  /// resolved — the last-translation register, which is the ERAT's
  /// most recently used slot.  A hit there moves nothing, so callers
  /// may treat such an access as translated for free.
  bool last_page_matches(std::uint64_t addr) const {
    return (addr >> page_shift_) == erat_[0];
  }

  /// Extra latency charged for `outcome`.
  double penalty_ns(TlbOutcome outcome) const;

  /// Convenience: translate and return the latency penalty.
  double access_penalty_ns(std::uint64_t addr) {
    return penalty_ns(translate(addr));
  }

  /// Exposes translation events under `<prefix>.`:
  ///   erat.hit / erat.miss   — first-level reach (the Fig. 2 spike)
  ///   tlb.hit / walk         — where the ERAT miss was serviced
  /// Invariants: erat.hit + erat.miss == translations and
  /// erat.miss == tlb.hit + walk.
  void attach_counters(CounterRegistry* registry,
                       const std::string& prefix = "tlb");

  void clear();

 private:
  /// Marks an empty ERAT slot; no page number can reach it, addresses
  /// being far below 2^64 - page_bytes.
  static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};

  TlbConfig config_;
  /// The fully-associative ERAT as erat_entries page numbers ordered
  /// from most to least recently used, empty slots (kNoPage) last.  A
  /// hit rotates its page to the front; a miss shifts every slot back,
  /// dropping the last one — an empty slot while there is one, else
  /// the LRU page — which is exactly true-LRU with empty ways filled
  /// first.  The victim is a position, not a fold over LRU stamps.
  std::vector<std::uint64_t> erat_;
  SetAssocCache tlb_;
  unsigned page_shift_;  ///< log2(page_bytes): page extraction by shift
  struct {
    Counter erat_hit, erat_miss, tlb_hit, walk;
  } events_;
};

}  // namespace p8::sim
