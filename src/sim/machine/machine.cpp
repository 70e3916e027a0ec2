#include "sim/machine/machine.hpp"

#include "common/error.hpp"

namespace p8::sim {

Machine::Machine(const arch::SystemSpec& spec,
                 const MemBandwidthParams& mem_params,
                 const NocParams& noc_params)
    : spec_(spec),
      topology_(arch::Topology::from_spec(spec)),
      memory_(spec, mem_params),
      noc_(topology_, noc_params),
      hierarchy_(HierarchyConfig::from_spec(spec, noc_params)),
      audit_(ModelAudit::machine(spec, mem_params, noc_params)) {}

CoreSim Machine::core_sim(const CoreSimConfig& config) const {
  CoreSimConfig c = config;
  c.core = spec_.processor.core;
  return CoreSim(c);
}

CoreSim Machine::core_sim() const { return core_sim(CoreSimConfig{}); }

LatencyProbe Machine::probe(const ProbeOptions& options) const {
  P8_REQUIRE(options.consumer_chip >= 0 &&
                 options.consumer_chip < spec_.total_chips(),
             "consumer chip out of range");
  P8_REQUIRE(options.home_chip >= 0 && options.home_chip < spec_.total_chips(),
             "home chip out of range");

  ProbeConfig config;
  config.hierarchy = hierarchy_;
  config.hierarchy.victim_l3 = options.victim_l3;

  config.tlb.page_bytes = options.page_bytes;

  config.prefetch.dscr = options.dscr;
  config.prefetch.stride_n_enabled = options.stride_n;
  config.prefetch.line_bytes = spec_.processor.cache_line_bytes;

  config.remote_extra_ns =
      topology_.min_latency_ns(options.home_chip, options.consumer_chip);
  LatencyProbe probe(config);
  if (options.counters != nullptr) probe.attach_counters(options.counters);
  return probe;
}

}  // namespace p8::sim
