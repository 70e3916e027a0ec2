// Event-driven multi-core memory traffic simulator.
//
// The analytic MemoryBandwidthModel (sim/mem) produces Table III and
// Figures 3-4 from closed-form capacity/concurrency arguments.  This
// module is the *independent cross-check*: a discrete-event simulation
// of many cores issuing line requests against shared per-chip
// resources.
//
//  * Each actor (a hardware thread or a core's worth of threads) runs
//    a closed loop: it keeps `mlp` line requests outstanding and
//    issues a new one the moment one completes.
//  * Per chip, read traffic drains through a read-link server and
//    write traffic through a (slower) write-link server — FIFO queues
//    with deterministic service time line_bytes/rate.
//  * Random-access requests additionally pass the chip's DRAM bank
//    server (the row-activate bound); streaming requests ride the
//    open row and skip it.
//  * Every request pays the base memory latency, overlapped with
//    service (a request completes when both its latency has elapsed
//    and its servers have drained it).
//
// The bench bench_abl_eventsim compares this simulation against the
// analytic model and the paper's figures.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/spec.hpp"
#include "sim/mem/bandwidth.hpp"
#include "sim/noc/noc.hpp"

namespace p8::sim {

struct TrafficConfig {
  int chips = 8;
  /// Per-chip link service rates, GB/s (spec x sustained efficiency).
  double read_link_gbs = 142.8;   // 8 Centaurs x 19.2 x 0.93
  double write_link_gbs = 73.6;   // 8 Centaurs x 9.6 x 0.958
  /// Per-chip random-access service bound (row activates), GB/s.
  double random_bank_gbs = 63.0;
  /// Per-actor (per-core) port into the fabric, GB/s; 0 disables.
  double core_port_gbs = 26.7;
  double base_latency_ns = 95.0;
  double line_bytes = 128.0;

  /// Link rates are the spec's Centaur link speeds scaled by the
  /// bandwidth model's sustained read/write link efficiencies; the
  /// base latency is the NoC's local DRAM latency.
  static TrafficConfig from_spec(const arch::SystemSpec& spec,
                                 const MemBandwidthParams& params,
                                 const NocParams& noc);
};

/// One closed-loop request generator.
struct ActorSpec {
  int chip = 0;
  /// Outstanding line requests this actor sustains.
  int mlp = 8;
  /// Fraction of requests that are writes (byte-accurate via error
  /// diffusion, deterministic).
  double write_fraction = 0.0;
  /// Random (row-miss) traffic passes the bank server too.
  bool random = false;
};

struct TrafficResult {
  double total_gbs = 0.0;          ///< aggregate goodput
  double read_gbs = 0.0;
  double write_gbs = 0.0;
  double mean_latency_ns = 0.0;    ///< request round trip incl. queueing
  std::uint64_t completed = 0;
};

/// Runs the simulation for `sim_ns` nanoseconds of virtual time after
/// a 10% warm-up and reports steady-state rates.
TrafficResult simulate_traffic(const TrafficConfig& config,
                               const std::vector<ActorSpec>& actors,
                               double sim_ns = 300000.0);

}  // namespace p8::sim
