// The POWER8 on-chip cache hierarchy, seen from one probing core.
//
// Models the path an lmbench-style load takes (paper §III-A, Fig. 2):
//
//   L1D (64 KB, store-through)
//   L2  (512 KB, store-in)
//   local L3 region (8 MB eDRAM, NUCA)
//   remote L3 regions of the other on-chip cores (victim pool,
//     (cores-1) x 8 MB) — the shelf between 8 MB and 64 MB in Fig. 2
//   Centaur L4 (centaurs x centaur.l4_bytes, memory-side) — the
//     shoulder that cuts >30 ns off an L3 miss
//   DRAM
//
// The L3 is a victim hierarchy: lines evicted from the local region are
// cast out laterally into other cores' regions; a hit there migrates
// the line back.  The L4 is memory-side: it caches everything fetched
// from DRAM and is not invalidated by on-chip activity.
#pragma once

#include <cstdint>
#include <string>

#include "arch/spec.hpp"
#include "sim/cache/cache.hpp"
#include "sim/counters.hpp"
#include "sim/noc/noc.hpp"

namespace p8::sim {

enum class ServiceLevel { kL1, kL2, kL3Local, kL3Remote, kL4, kDram };

/// Human-readable name for a service level.
const char* to_string(ServiceLevel level);

/// Load-to-use latencies for each service level, in nanoseconds.
/// Values follow the paper's own statements where it makes them
/// (L4 saves >30 ns over DRAM; local DRAM ~95 ns at the Fig. 2
/// plateau) and POWER8 documentation for the core-adjacent levels.
/// HierarchyConfig::from_spec replaces `dram_ns` with the spec's
/// `noc.local_dram_latency_ns`.
struct HierarchyLatencies {
  double l1_ns = 0.7;
  double l2_ns = 2.8;
  double l3_local_ns = 6.5;
  double l3_remote_ns = 22.0;
  double l4_ns = 62.0;
  double dram_ns = 95.0;

  double of(ServiceLevel level) const;
};

struct HierarchyConfig {
  std::uint64_t line_bytes = 128;
  std::uint64_t l1_bytes = 64 * 1024;
  unsigned l1_ways = 8;
  std::uint64_t l2_bytes = 512 * 1024;
  unsigned l2_ways = 8;
  std::uint64_t l3_bytes = 8ull << 20;
  unsigned l3_ways = 8;
  int chip_cores = 8;       ///< local + (chip_cores-1) victim regions
  std::uint64_t l4_bytes = 128ull << 20;  ///< per chip, all its Centaurs
  bool victim_l3 = true;    ///< ablation: disable lateral cast-out
  HierarchyLatencies latency;

  /// Associativity of the victim pool and the L4.
  static constexpr unsigned kPoolWays = 16;

  /// The other cores' L3 regions, and the whole chip's L3.
  std::uint64_t victim_bytes() const {
    return chip_cores > 1 ? l3_bytes * (chip_cores - 1ull) : 0;
  }
  std::uint64_t chip_l3_bytes() const { return l3_bytes + victim_bytes(); }

  /// The one translation from a machine description to per-chip
  /// capacities and latencies: `centaurs_per_chip x centaur.l4_bytes`
  /// of L4, and `noc.local_dram_latency_ns` as the DRAM latency.
  /// Everything else reads it through Machine::hierarchy().
  static HierarchyConfig from_spec(const arch::SystemSpec& spec,
                                   const NocParams& noc);
};

class ChipMemoryModel {
 public:
  explicit ChipMemoryModel(const HierarchyConfig& config);

  /// Performs one demand load and returns the level that serviced it,
  /// updating all cache state (fills, victim cast-outs, L4 allocation).
  ServiceLevel access(std::uint64_t addr);

  /// Performs one store.  POWER8 semantics: the L1 is store-through
  /// (never holds dirty data); the line is allocated in the store-in
  /// L2 — on a miss it is *fetched* first (write-allocate, which is
  /// why pure-store kernels still generate read traffic) — and marked
  /// dirty there.  Returns the level the allocation came from (kL2 if
  /// it was already core-adjacent).
  ServiceLevel access_write(std::uint64_t addr);

  /// Exposes per-level events under `<prefix>.`:
  ///   loads / stores                      — demand accesses
  ///   l1.hit / l1.miss                    — L1 lookups (identity:
  ///                                         hit + miss == loads + stores)
  ///   l2.hit / l2.miss / l2.writeback     — store-in L2 traffic
  ///   l3.local.hit / l3.victim.hit / l3.miss
  ///   l3.evict / l3.victim.evict          — NUCA cast-out chain
  ///   l4.hit / dram.fill                  — memory-side service
  ///   memlink.read.lines / memlink.write.lines — L4/DRAM fills (demand
  ///     or write-allocate) / dirty lines crossing the Centaur links;
  ///     their ratio is the Table III read:write mix
  ///   dram.read.lines / dram.write.lines  — L4 misses / L4 write-backs
  ///   prefetch.install                    — prefetched line fills
  void attach_counters(CounterRegistry* registry,
                       const std::string& prefix = "cache");

  /// Probe-only: where would this address hit right now?
  ServiceLevel lookup(std::uint64_t addr) const;

  /// Host-CPU prefetch hint for the sets `addr` maps to in the levels
  /// whose backing arrays exceed the host cache (local L3, victim
  /// pool, L4).  Issued ahead of the dependent walk so the way scans
  /// find their arrays resident.  No simulator state changes.
  /// Force-inlined for the reason prefetch_set is: an out-of-line
  /// copy is pure to GCC, and its calls are deleted as dead code.
  [[gnu::always_inline]] void prefetch_sets(std::uint64_t addr) const {
    l3_.prefetch_set(addr);
    if (config_.victim_l3) l3_victim_.prefetch_set(addr);
    l4_.prefetch_set(addr);
  }

  /// Installs a line as if it had been prefetched: fills L1/L2/L3
  /// without counting a demand access.
  void install_prefetched(std::uint64_t addr);

  void clear();

 private:
  void fill_upper(std::uint64_t addr);
  void cast_into_l3(const SetAssocCache::Eviction& line);
  void cast_into_victim(const SetAssocCache::Eviction& line);
  /// Demand-miss walk below the L2.  `l1_slot`/`l2_slot` carry the
  /// victim ways the L1/L2 touch misses already scanned, so the fills
  /// on the way out need no rescan (nothing touches the L1 or L2
  /// between the misses and the fills).
  ServiceLevel locate_and_fill(std::uint64_t addr,
                               const SetAssocCache::Slot& l1_slot,
                               const SetAssocCache::Slot& l2_slot);
  /// L2-then-L3 fill shared by the demand-miss paths: installs `addr`
  /// into L2 at the recorded slot and into L3, reusing the L3 touch
  /// scan unless the L2 cast-out landed in the same L3 set.
  void fill_l2_l3(std::uint64_t addr, bool l2_dirty,
                  const SetAssocCache::Slot& l2_slot,
                  const SetAssocCache::Slot& l3_slot);

  HierarchyConfig config_;
  SetAssocCache l1_;
  SetAssocCache l2_;
  SetAssocCache l3_;
  SetAssocCache l3_victim_;  // other cores' regions acting as victims
  SetAssocCache l4_;
  struct {
    Counter loads, stores;
    Counter l1_hit, l1_miss;
    Counter l2_hit, l2_miss, l2_writeback;
    Counter l3_local_hit, l3_victim_hit, l3_miss, l3_evict, l3_victim_evict;
    Counter l4_hit, dram_fill;
    Counter memlink_read, memlink_write, dram_read, dram_write;
    Counter prefetch_install;
  } events_;
};

}  // namespace p8::sim
