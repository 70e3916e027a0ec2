#include "predict/machine_predict.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contract.hpp"

namespace p8::predict {

Predictor::Predictor(const sim::MachineSpec& spec)
    : spec_(spec), machine_(spec.machine()) {
  // The Fig. 2 staircase: cumulative capacity of each service level,
  // read off the hierarchy the simulator's probes are built from.  A
  // level whose capacity does not exceed its parent's (the L4 of
  // e870-centaur4, no larger than the chip L3; a single-core chip's
  // empty victim pool) adds no step and folds away, mirroring the
  // simulated curve.
  const auto push = [this](sim::ServiceLevel level, std::uint64_t cap,
                           double latency) {
    if (level_count_ > 0 && cap <= levels_[level_count_ - 1].capacity_bytes)
      return;
    levels_[level_count_++] = Level{level, cap, latency};
  };
  const sim::HierarchyConfig& hier = machine_.hierarchy();
  const sim::HierarchyLatencies& lat = hier.latency;
  push(sim::ServiceLevel::kL1, hier.l1_bytes, lat.l1_ns);
  push(sim::ServiceLevel::kL2, hier.l2_bytes, lat.l2_ns);
  push(sim::ServiceLevel::kL3Local, hier.l3_bytes, lat.l3_local_ns);
  push(sim::ServiceLevel::kL3Remote, hier.chip_l3_bytes(), lat.l3_remote_ns);
  push(sim::ServiceLevel::kL4, hier.l4_bytes, lat.l4_ns);
  push(sim::ServiceLevel::kDram,
       std::numeric_limits<std::uint64_t>::max(), lat.dram_ns);
  P8_ENSURE(level_count_ >= 2 && level_count_ <= levels_.size(),
            "the staircase needs at least one cache level above DRAM");
}

sim::ServiceLevel Predictor::plateau_level(
    std::uint64_t footprint_bytes) const {
  // The cyclic chase revisits a line exactly one working-set later, so
  // the deepest level whose cumulative capacity covers the footprint
  // serves every steady-state access.
  const std::uint64_t f =
      std::max(footprint_bytes, machine_.hierarchy().line_bytes);
  for (std::size_t i = 0; i + 1 < level_count_; ++i)
    if (f <= levels_[i].capacity_bytes) return levels_[i].level;
  return levels_[level_count_ - 1].level;
}

double Predictor::service_latency_ns(sim::ServiceLevel level) const {
  return machine_.hierarchy().latency.of(level);
}

double Predictor::tlb_penalty_ns(std::uint64_t footprint_bytes,
                                 std::uint64_t page_bytes) const {
  P8_REQUIRE(page_bytes > 0, "page size must be positive");
  // Stack-LRU closed form: N pages referenced uniformly through a
  // C-entry LRU structure hit with probability min(1, C/N).  The ERAT
  // is LRU inside the TLB's reach, so the hit classes nest:
  //   P(ERAT hit) = min(1, 48/N), P(TLB hit, ERAT miss) = tlb - erat.
  const double pages = std::max(
      1.0, std::ceil(static_cast<double>(footprint_bytes) /
                     static_cast<double>(page_bytes)));
  const double erat_hit = std::min(1.0, tlb_.erat_entries / pages);
  const double tlb_hit = std::min(1.0, tlb_.tlb_entries / pages);
  return (tlb_hit - erat_hit) * tlb_.erat_miss_ns +
         (1.0 - tlb_hit) * tlb_.walk_ns;
}

double Predictor::chase_latency_ns(std::uint64_t footprint_bytes,
                                   std::uint64_t page_bytes,
                                   int consumer_chip, int home_chip) const {
  const sim::ServiceLevel level = plateau_level(footprint_bytes);
  double service = service_latency_ns(level);
  // Off-chip service pays the fabric hops to the homing chip: the
  // remote_extra_ns Machine::probe charges.
  if (level == sim::ServiceLevel::kL4 || level == sim::ServiceLevel::kDram)
    service += machine_.topology().min_latency_ns(home_chip, consumer_chip);
  return service + tlb_penalty_ns(footprint_bytes, page_bytes);
}

double Predictor::stream_latency_ns(int dscr, int consumer_chip,
                                    int home_chip) const {
  return machine_.noc().memory_latency_prefetched_ns(consumer_chip, home_chip,
                                                     dscr);
}

QueryRouter::QueryRouter(const sim::MachineSpec& spec, std::size_t threads)
    : predictor_(spec), runner_(threads) {
  runner_.set_task_label("predict-fallback");
  runner_.gate_on_audit(machine().audit());
}

QueryRouter::QueryRouter(const sim::MachineSpec& spec,
                         common::ThreadPool& pool)
    : predictor_(spec), runner_(pool) {
  runner_.set_task_label("predict-fallback");
  runner_.gate_on_audit(machine().audit());
}

bool QueryRouter::analytic_servable(const Query& query) const {
  switch (query.kind) {
    case Query::Kind::kStreamBandwidth:
    case Query::Kind::kRandomBandwidth:
    case Query::Kind::kNocLatency:
      // The simulator's own bandwidth/NoC tier is the same closed
      // form — nothing for the event engine to add.
      return true;
    case Query::Kind::kStreamLatency:
      // Unit stride is the calibrated steady state; strided streams
      // interact with stream confirmation and page boundaries.
      return query.stride_lines == 1;
    case Query::Kind::kChaseLatency: {
      if (query.pattern != ubench::ChasePattern::kRandom) return false;
      if (query.dscr != 1) return false;
      // Inside the guard band around a capacity boundary the occupancy
      // mix is transitional — only the event simulator resolves it.
      for (std::size_t i = 0; i + 1 < predictor_.level_count(); ++i) {
        const double boundary =
            static_cast<double>(predictor_.level(i).capacity_bytes);
        const double f = static_cast<double>(query.footprint_bytes);
        if (f > 0.9 * boundary && f < 1.15 * boundary) return false;
      }
      return true;
    }
  }
  return false;
}

double QueryRouter::analytic(const Query& query) const {
  switch (query.kind) {
    case Query::Kind::kChaseLatency:
      return predictor_.chase_latency_ns(query.footprint_bytes,
                                         query.page_bytes,
                                         query.consumer_chip,
                                         query.home_chip);
    case Query::Kind::kStreamLatency:
      return predictor_.stream_latency_ns(query.dscr, query.consumer_chip,
                                          query.home_chip);
    case Query::Kind::kStreamBandwidth:
      return machine().memory().stream_gbs(query.chips, query.cores,
                                           query.threads, query.mix,
                                           query.dscr);
    case Query::Kind::kRandomBandwidth:
      return machine().memory().random_gbs(query.chips, query.cores,
                                           query.threads, query.streams);
    case Query::Kind::kNocLatency:
      return machine().noc().memory_latency_ns(query.consumer_chip,
                                               query.home_chip);
  }
  P8_INVARIANT(false, "unreachable: every query kind is dispatched above");
  return 0.0;
}

double QueryRouter::simulate(const Query& query) {
  switch (query.kind) {
    case Query::Kind::kChaseLatency: {
      ubench::ChaseOptions options;
      options.working_set_bytes = query.footprint_bytes;
      options.page_bytes = query.page_bytes;
      options.dscr = query.dscr;
      options.pattern = query.pattern;
      options.stride_lines = query.stride_lines;
      options.consumer_chip = query.consumer_chip;
      options.home_chip = query.home_chip;
      return ubench::chase_latency_ns(machine(), options);
    }
    case Query::Kind::kStreamLatency: {
      ubench::StrideOptions options;
      options.stride_lines = query.stride_lines;
      options.dscr = query.dscr;
      options.page_bytes = query.page_bytes;
      options.consumer_chip = query.consumer_chip;
      options.home_chip = query.home_chip;
      return ubench::stride_latency_ns(machine(), options);
    }
    case Query::Kind::kStreamBandwidth:
    case Query::Kind::kRandomBandwidth:
    case Query::Kind::kNocLatency:
      // Closed forms in both tiers: analytic_servable() routes these to
      // analytic(), so this case is only a forward.
      return analytic(query);
  }
  P8_INVARIANT(false, "unreachable: every query kind is dispatched above");
  return 0.0;
}

Answer QueryRouter::answer(const Query& query) {
  if (analytic_servable(query)) {
    hits_.add();
    return Answer{analytic(query), true};
  }
  fallbacks_.add();
  return Answer{simulate(query), false};
}

std::vector<Answer> QueryRouter::answer_batch(
    const std::vector<Query>& queries) {
  std::vector<Answer> out(queries.size());
  std::vector<std::size_t> fallback;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (analytic_servable(queries[i])) {
      hits_.add();
      out[i] = Answer{analytic(queries[i]), true};
    } else {
      fallback.push_back(i);
    }
  }
  if (!fallback.empty()) {
    fallbacks_.add(fallback.size());
    // Each fallback derives all mutable state (probe, RNG) from its
    // query alone, so fanning across the runner is bit-identical to
    // the inline loop for any worker count.
    const std::vector<double> values = runner_.run(
        fallback.size(),
        [this, &queries, &fallback](std::size_t k) {
          return simulate(queries[fallback[k]]);
        });
    for (std::size_t k = 0; k < fallback.size(); ++k)
      out[fallback[k]] = Answer{values[k], false};
  }
  return out;
}

void QueryRouter::attach_counters(sim::CounterRegistry* registry,
                                  const std::string& prefix) {
  hits_ = sim::make_counter(registry, prefix, ".hits");
  fallbacks_ = sim::make_counter(registry, prefix, ".fallbacks");
}

}  // namespace p8::predict
