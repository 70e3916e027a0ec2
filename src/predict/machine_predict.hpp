// Closed-form machine predictor: the microsecond query tier.
//
// The paper's headline curves are all closed-form-predictable from the
// machine parameters alone — no event simulation required:
//
//  * Latency plateaus (Fig. 2).  The pointer chase is a single-cycle
//    permutation, so the reuse distance of every line equals the
//    working-set size and the service level is a step function of the
//    footprint over the cumulative capacities L1 < L2 < local L3 <
//    chip L3 (victim pool) < Centaur L4 < DRAM.  Address translation
//    adds the stack-LRU closed form: with N resident pages a C-entry
//    LRU translation structure hits with probability min(1, C/N)
//    (uniform-reference stack approximation — the exponential-gap
//    refinement agrees to ~1%), giving the Fig. 2 ERAT spike at
//    48 x 64 KB = 3 MB and its disappearance on 16 MB pages.
//  * Bandwidth roofs (Table III, Figs. 3/4) and NoC latency (Table
//    IV).  The simulator's own tiers for these are already closed
//    forms (MemoryBandwidthModel, NocModel), so the predictor owns a
//    sim::Machine and answers them with those models — one
//    implementation per quantity.  The topology precomputes its
//    chips x chips min-hop table, so the hop cost a remote chase or
//    stream pays is a lookup.
//
// Every query is O(1) arithmetic over state precomputed in the
// constructor — no allocation, no locks — which is what makes the
// ≥10^5x-over-simulation throughput target (bench_predict) possible.
//
// QueryRouter is the routing brain in front of the two tiers: it
// classifies a query as analytic-servable (answered here) or
// simulation-required (near a capacity boundary, strided/prefetched
// chase patterns) and falls back to the event-driven simulator —
// bit-identical to calling ubench directly — for the rest, counting
// both outcomes under `predictor.*` in a CounterRegistry.
//
// Differential validation: bench_predict pins predictor-vs-simulator
// agreement per preset x quantity under per-quantity tolerances
// (BENCH_predict.json, gated by tier1.sh); docs/PREDICT.md derives the
// equations and lists the tolerances.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/cache/hierarchy.hpp"
#include "sim/cache/tlb.hpp"
#include "sim/counters.hpp"
#include "sim/machine/machine.hpp"
#include "sim/machine/spec.hpp"
#include "sim/machine/sweep.hpp"
#include "ubench/workloads.hpp"

namespace p8::predict {

class Predictor {
 public:
  /// One step of the latency staircase: footprints in
  /// (previous capacity, capacity_bytes] are serviced at latency_ns.
  struct Level {
    sim::ServiceLevel level = sim::ServiceLevel::kDram;
    std::uint64_t capacity_bytes = 0;  ///< cumulative; ~0 for DRAM
    double latency_ns = 0.0;
  };

  explicit Predictor(const sim::MachineSpec& spec);

  const sim::MachineSpec& spec() const { return spec_; }
  /// The simulator built from spec(): its bandwidth and NoC models
  /// answer the roof and Table IV queries.
  const sim::Machine& machine() const { return machine_; }

  // ---- latency plateau curve (Fig. 2) ------------------------------------

  /// The service level a cyclic pointer chase of `footprint_bytes`
  /// settles at (reuse distance == footprint under the single-cycle
  /// permutation).
  sim::ServiceLevel plateau_level(std::uint64_t footprint_bytes) const;

  /// Load-to-use service latency of `level`, before translation.
  double service_latency_ns(sim::ServiceLevel level) const;

  /// Expected per-access translation penalty for a chase touching
  /// `footprint_bytes` of `page_bytes` pages: the stack-LRU closed
  /// form over the ERAT and TLB reaches.
  double tlb_penalty_ns(std::uint64_t footprint_bytes,
                        std::uint64_t page_bytes) const;

  /// Predicted average load-to-use latency of the Fig. 2 pointer chase
  /// (prefetch-defeating random permutation, DSCR=1): plateau service
  /// latency + translation penalty, plus the NoC hop cost when the
  /// footprint spills past the on-chip hierarchy of a remote home.
  double chase_latency_ns(std::uint64_t footprint_bytes,
                          std::uint64_t page_bytes = 64 * 1024,
                          int consumer_chip = 0, int home_chip = 0) const;

  // ---- prefetched streams (Figs. 6/7 steady state) -----------------------

  /// Steady-state per-access latency of a unit-stride scan with the
  /// prefetcher at DSCR depth `dscr`: memory latency / (depth + 1),
  /// i.e. NocModel::memory_latency_prefetched_ns.
  double stream_latency_ns(int dscr, int consumer_chip = 0,
                           int home_chip = 0) const;

  // ---- introspection (router guard bands, tests) -------------------------

  std::size_t level_count() const { return level_count_; }
  const Level& level(std::size_t i) const { return levels_[i]; }

 private:
  sim::MachineSpec spec_;
  sim::Machine machine_;
  sim::TlbConfig tlb_;
  std::size_t level_count_ = 0;
  std::array<Level, 6> levels_{};
};

/// One latency/bandwidth question for the two-tier stack.
struct Query {
  enum class Kind {
    kChaseLatency,    ///< Fig. 2 pointer chase at `footprint_bytes`
    kStreamLatency,   ///< Figs. 6/7 strided scan steady state
    kStreamBandwidth, ///< Table III / Fig. 3 STREAM roof
    kRandomBandwidth, ///< Fig. 4 random-access roof
    kNocLatency,      ///< Table IV demand latency
  };
  Kind kind = Kind::kChaseLatency;

  // chase / stream-latency parameters
  std::uint64_t footprint_bytes = 1u << 20;
  std::uint64_t page_bytes = 64 * 1024;
  int dscr = 1;
  ubench::ChasePattern pattern = ubench::ChasePattern::kRandom;
  std::uint64_t stride_lines = 1;
  int consumer_chip = 0;
  int home_chip = 0;

  // bandwidth parameters
  sim::RwMix mix{2.0, 1.0};
  int chips = 1;
  int cores = 1;
  int threads = 1;
  int streams = 1;
};

struct Answer {
  double value = 0.0;
  /// True when the analytic tier answered; false when the query ran
  /// through the event-driven simulator.
  bool analytic = false;
};

/// Classifies queries as analytic-servable or simulation-required and
/// answers them: the analytic path is O(1) arithmetic with zero
/// allocation; the fallback replays the exact ubench workload on the
/// event-driven Machine (batch fallbacks fan across a SweepRunner,
/// bit-identical to the inline run).
class QueryRouter {
 public:
  /// `threads == 0` sizes the fallback SweepRunner to the hardware.
  explicit QueryRouter(const sim::MachineSpec& spec,
                       std::size_t threads = 0);

  /// Borrows `pool` (not owned; must outlive the router) for the
  /// fallback SweepRunner — the serving layer keeps one pool and many
  /// routers, so simulation-required batches from every machine share
  /// the same workers instead of each router spawning its own.
  QueryRouter(const sim::MachineSpec& spec, common::ThreadPool& pool);

  const Predictor& predictor() const { return predictor_; }
  const sim::Machine& machine() const { return predictor_.machine(); }

  /// The routing policy (docs/PREDICT.md).  Bandwidth and NoC queries
  /// are always analytic (the simulator's own tier for them is a closed
  /// form).  A chase-latency query is analytic when it matches the
  /// calibrated plateau model: random pattern, prefetch off
  /// (DSCR=1), and a footprint outside the guard band
  /// (0.9x, 1.15x) around every capacity boundary — inside the band
  /// the occupancy mix is genuinely transitional and only the event
  /// simulator resolves it.  Stream-latency queries are analytic for
  /// unit stride, simulation-required for strided patterns.
  bool analytic_servable(const Query& query) const;

  /// Answers one query, counting `predictor.hits` / `.fallbacks`.
  Answer answer(const Query& query);

  /// Answers a batch: analytic queries inline, simulation-required
  /// ones fanned across the SweepRunner in submission order (results
  /// land in query order regardless of worker count).
  std::vector<Answer> answer_batch(const std::vector<Query>& queries);

  /// Exposes routing outcomes under `<prefix>.`:
  ///   hits      — queries answered by the analytic tier
  ///   fallbacks — queries routed to the event-driven simulator
  void attach_counters(sim::CounterRegistry* registry,
                       const std::string& prefix = "predictor");

 private:
  double analytic(const Query& query) const;
  double simulate(const Query& query);

  Predictor predictor_;
  sim::SweepRunner runner_;
  sim::Counter hits_;
  sim::Counter fallbacks_;
};

}  // namespace p8::predict
