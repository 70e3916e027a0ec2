// The assembled machine model: one object wiring the spec registry,
// the interconnect topology, the memory-bandwidth model, the NoC model
// and factories for latency probes and core simulators.  Bench and
// example code talks to this facade.
#pragma once

#include "arch/spec.hpp"
#include "arch/topology.hpp"
#include "sim/audit.hpp"
#include "sim/core/coresim.hpp"
#include "sim/machine/latency_probe.hpp"
#include "sim/mem/bandwidth.hpp"
#include "sim/noc/noc.hpp"

namespace p8::sim {

/// Knobs for building a latency probe against this machine.
struct ProbeOptions {
  std::uint64_t page_bytes = 64 * 1024;  ///< 64 KB regular or 16 MB huge
  int dscr = 1;                          ///< 1 = prefetch disabled
  bool stride_n = false;
  /// Chip issuing the loads and chip homing the memory; the gap adds
  /// SMP hop latency to L4/DRAM service.
  int consumer_chip = 0;
  int home_chip = 0;
  bool victim_l3 = true;  ///< ablation hook
  /// When set, the probe stack (TLB, caches, prefetch engine) records
  /// its events here; null (the default) compiles the probe with every
  /// counter detached — zero overhead, bit-identical results.
  CounterRegistry* counters = nullptr;
};

class Machine {
 public:
  explicit Machine(const arch::SystemSpec& spec,
                   const MemBandwidthParams& mem_params = {},
                   const NocParams& noc_params = {});

  const arch::SystemSpec& spec() const { return spec_; }
  const arch::Topology& topology() const { return topology_; }
  const MemoryBandwidthModel& memory() const { return memory_; }
  const NocModel& noc() const { return noc_; }
  /// Per-chip cache capacities and service latencies, built once from
  /// the spec and the NoC params (HierarchyConfig::from_spec): what
  /// every probe simulates and what the analytic tier and the bench
  /// landmarks read.
  const HierarchyConfig& hierarchy() const { return hierarchy_; }

  /// The ModelAudit verdict on this machine's configuration, computed
  /// once at construction.  Construction never throws on a failed
  /// audit (ablations legitimately build counterfactual machines);
  /// the bench entry points and SweepRunner consult this report and
  /// refuse to run on errors unless --no-audit waives them.
  const AuditReport& audit() const { return audit_; }

  /// A cycle-level core simulator for this machine's processor.
  CoreSim core_sim(const CoreSimConfig& config) const;
  CoreSim core_sim() const;

  /// Builds a latency probe configured for this machine.
  LatencyProbe probe(const ProbeOptions& options) const;

  /// Convenience passthroughs used all over the benches.
  double peak_dp_gflops() const { return spec_.peak_dp_gflops(); }
  double peak_mem_gbs() const { return spec_.peak_mem_gbs(); }

 private:
  arch::SystemSpec spec_;
  arch::Topology topology_;
  MemoryBandwidthModel memory_;
  NocModel noc_;
  HierarchyConfig hierarchy_;
  AuditReport audit_;
};

}  // namespace p8::sim
