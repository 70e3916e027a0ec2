// Architecture specification registry.
//
// Encodes the machine parameters the paper states in §II (Table I:
// POWER7 vs POWER8, Table II: the E870 under test, Figure 1: SMP
// links).  These are *inputs* to the simulator — everything the paper
// measures must come out of the model, not out of this file.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"

namespace p8::arch {

/// Per-core microarchitectural parameters (Table I rows).
struct CoreSpec {
  int smt_threads = 0;        ///< hardware threads per core
  std::uint64_t l1i_bytes = 0;
  std::uint64_t l1d_bytes = 0;
  std::uint64_t l2_bytes = 0;
  std::uint64_t l3_bytes = 0;  ///< local L3 region per core
  int issue_width = 0;         ///< instructions issued per cycle
  int commit_width = 0;        ///< instructions completed per cycle
  int loads_per_cycle = 0;
  int stores_per_cycle = 0;

  // Floating-point execution (paper §III-C).
  int vsx_pipes = 0;            ///< symmetric VSX pipelines
  int vsx_latency_cycles = 0;   ///< FMA result latency
  int vsx_dp_lanes = 0;         ///< double-precision lanes per pipe
  int arch_vsx_registers = 0;   ///< architected VSX registers per core
  int rename_vsx_registers = 0; ///< second-level (rename) pool

  // Load-miss tracking: outstanding cache-line fills a core sustains.
  int load_miss_queue = 0;

  /// Peak double-precision FLOP per cycle: pipes x lanes x 2 (FMA).
  constexpr int dp_flops_per_cycle() const {
    return vsx_pipes * vsx_dp_lanes * 2;
  }

  friend bool operator==(const CoreSpec&, const CoreSpec&) = default;
};

/// Processor-level parameters.
struct ProcessorSpec {
  std::string name;
  CoreSpec core;
  int max_cores = 0;
  std::uint64_t cache_line_bytes = 128;
  std::uint64_t max_l4_bytes = 0;  ///< aggregated across Centaur chips

  /// Total on-chip L3 for an n-core part.
  constexpr std::uint64_t l3_total_bytes(int cores) const {
    return core.l3_bytes * static_cast<std::uint64_t>(cores);
  }

  friend bool operator==(const ProcessorSpec&, const ProcessorSpec&) = default;
};

/// The Centaur memory-buffer chip (paper §II-A): 16 MB eDRAM L4 plus
/// the DRAM controller, attached to the processor by one write link
/// and two read links — the source of the 2:1 read:write asymmetry.
struct CentaurSpec {
  std::uint64_t l4_bytes = p8::common::mib(16);
  double read_link_gbs = 19.2;   ///< processor<-Centaur (both read links)
  double write_link_gbs = 9.6;   ///< processor->Centaur
  std::uint64_t max_dram_bytes = p8::common::gib(128);

  friend bool operator==(const CentaurSpec&, const CentaurSpec&) = default;
};

/// Factory for the POWER7 column of Table I.
ProcessorSpec power7();

/// Factory for the POWER8 column of Table I.
ProcessorSpec power8();

/// System-level description of one SMP configuration.
struct SystemSpec {
  std::string name;
  ProcessorSpec processor;
  CentaurSpec centaur;
  int sockets = 0;
  int chips_per_socket = 1;
  int cores_per_chip = 0;
  int centaurs_per_chip = 0;
  double clock_ghz = 0.0;

  // SMP interconnect (Figure 1): unidirectional per-link bandwidth.
  double xbus_gbs = 39.2;
  double abus_gbs = 12.8;
  /// A-bus links bundled between partner chips.  Each chip has three
  /// A links to reach up to three other groups; in a two-group system
  /// all three run to the partner chip in the other group.
  int abus_links_per_pair = 3;
  int chips_per_group = 4;

  int total_chips() const { return sockets * chips_per_socket; }
  int total_cores() const { return total_chips() * cores_per_chip; }
  int total_threads() const {
    return total_cores() * processor.core.smt_threads;
  }
  int groups() const {
    return (total_chips() + chips_per_group - 1) / chips_per_group;
  }

  /// Peak double-precision throughput in GFLOP/s.
  double peak_dp_gflops() const {
    return total_cores() * clock_ghz * processor.core.dp_flops_per_cycle();
  }
  /// Peak memory read bandwidth (GB/s): all read links.
  double peak_read_gbs() const {
    return total_chips() * centaurs_per_chip * centaur.read_link_gbs;
  }
  /// Peak memory write bandwidth (GB/s): all write links.
  double peak_write_gbs() const {
    return total_chips() * centaurs_per_chip * centaur.write_link_gbs;
  }
  /// Peak sustainable bandwidth at the optimal 2:1 read:write mix.
  double peak_mem_gbs() const { return peak_read_gbs() + peak_write_gbs(); }
  /// Aggregated L4 capacity in bytes.
  std::uint64_t l4_bytes() const {
    return static_cast<std::uint64_t>(total_chips()) * centaurs_per_chip *
           centaur.l4_bytes;
  }
  /// Maximum DRAM capacity in bytes.
  std::uint64_t max_dram_bytes() const {
    return static_cast<std::uint64_t>(total_chips()) * centaurs_per_chip *
           centaur.max_dram_bytes;
  }
  /// Machine balance: peak FLOP/s over peak byte/s (paper §IV).
  double balance() const { return peak_dp_gflops() / peak_mem_gbs(); }

  friend bool operator==(const SystemSpec&, const SystemSpec&) = default;
};

/// The system under test: IBM Power System E870, 8 sockets, one
/// 8-core POWER8 chip per socket at 4.35 GHz, 8 Centaurs per chip.
SystemSpec e870();

/// The largest POWER8 SMP the paper quotes (192-way, 4 GHz): checks
/// the 6,144 GFLOP/s / 3,686 GB/s / 16 TB headline numbers.
SystemSpec max_power8_smp();

}  // namespace p8::arch
