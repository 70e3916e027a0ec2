#include "sim/machine/traffic_sim.hpp"

#include <queue>

#include "common/error.hpp"

namespace p8::sim {

TrafficConfig TrafficConfig::from_spec(const arch::SystemSpec& spec,
                                       const MemBandwidthParams& params,
                                       const NocParams& noc) {
  TrafficConfig c;
  c.chips = spec.total_chips();
  c.read_link_gbs =
      spec.centaurs_per_chip * spec.centaur.read_link_gbs * params.read_link_eff;
  c.write_link_gbs = spec.centaurs_per_chip * spec.centaur.write_link_gbs *
                     params.write_link_eff;
  c.base_latency_ns = noc.local_dram_latency_ns;
  c.line_bytes = static_cast<double>(spec.processor.cache_line_bytes);
  return c;
}

namespace {

/// A FIFO server: requests are serialized with a fixed service time.
struct Server {
  double service_ns = 0.0;
  double free_at = 0.0;

  /// Enqueues one request arriving at `arrival`; returns when its
  /// service completes.
  double serve(double arrival) {
    const double start = std::max(arrival, free_at);
    free_at = start + service_ns;
    return free_at;
  }
};

struct Actor {
  ActorSpec spec;
  double write_debt = 0.0;  // error-diffusion accumulator
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  double latency_sum = 0.0;
};

struct Completion {
  double time = 0.0;
  int actor = 0;
  double issued_at = 0.0;
  bool is_write = false;

  bool operator>(const Completion& other) const { return time > other.time; }
};

}  // namespace

TrafficResult simulate_traffic(const TrafficConfig& config,
                               const std::vector<ActorSpec>& actors_in,
                               double sim_ns) {
  P8_REQUIRE(!actors_in.empty(), "no actors");
  P8_REQUIRE(sim_ns > 0, "simulation window must be positive");
  for (const auto& a : actors_in) {
    P8_REQUIRE(a.chip >= 0 && a.chip < config.chips, "actor chip range");
    P8_REQUIRE(a.mlp >= 1, "actor needs at least one outstanding request");
    P8_REQUIRE(a.write_fraction >= 0.0 && a.write_fraction <= 1.0,
               "write fraction is a probability");
  }

  std::vector<Server> read_links(static_cast<std::size_t>(config.chips));
  std::vector<Server> write_links(static_cast<std::size_t>(config.chips));
  std::vector<Server> banks(static_cast<std::size_t>(config.chips));
  for (int c = 0; c < config.chips; ++c) {
    read_links[c].service_ns = config.line_bytes / config.read_link_gbs;
    write_links[c].service_ns = config.line_bytes / config.write_link_gbs;
    banks[c].service_ns = config.line_bytes / config.random_bank_gbs;
  }
  // Per-actor port into the on-chip fabric (a core's LSU/L2 interface).
  std::vector<Server> ports(actors_in.size());
  for (auto& p : ports)
    p.service_ns = config.core_port_gbs > 0
                       ? config.line_bytes / config.core_port_gbs
                       : 0.0;

  std::vector<Actor> actors;
  actors.reserve(actors_in.size());
  for (const auto& spec : actors_in) actors.push_back({spec, 0.0, 0, 0, 0.0});

  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      events;

  const double warmup = sim_ns * 0.1;
  const double horizon = warmup + sim_ns;
  std::uint64_t completed = 0;
  std::uint64_t completed_reads = 0;
  std::uint64_t completed_writes = 0;
  double latency_sum = 0.0;

  auto issue = [&](int actor_id, double now) {
    Actor& a = actors[static_cast<std::size_t>(actor_id)];
    a.write_debt += a.spec.write_fraction;
    const bool is_write = a.write_debt >= 1.0;
    if (is_write) a.write_debt -= 1.0;

    const int chip = a.spec.chip;
    double served = config.core_port_gbs > 0
                        ? ports[static_cast<std::size_t>(actor_id)].serve(now)
                        : now;
    served = is_write ? write_links[chip].serve(served)
                      : read_links[chip].serve(served);
    if (a.spec.random) served = banks[chip].serve(served);
    // Latency overlaps with service: the round trip finishes when both
    // the wire latency has elapsed and the servers have drained it.
    const double done = std::max(now + config.base_latency_ns, served);
    events.push({done, actor_id, now, is_write});
    ++a.issued;
  };

  for (std::size_t id = 0; id < actors.size(); ++id)
    for (int k = 0; k < actors[id].spec.mlp; ++k)
      issue(static_cast<int>(id), 0.0);

  while (!events.empty()) {
    const Completion ev = events.top();
    events.pop();
    if (ev.time > horizon) break;
    if (ev.time > warmup) {
      ++completed;
      latency_sum += ev.time - ev.issued_at;
      if (ev.is_write) ++completed_writes;
      else ++completed_reads;
    }
    issue(ev.actor, ev.time);
  }

  TrafficResult result;
  result.completed = completed;
  const double window = sim_ns;  // measured portion
  result.total_gbs = static_cast<double>(completed) * config.line_bytes /
                     window;  // bytes/ns == GB/s
  result.read_gbs =
      static_cast<double>(completed_reads) * config.line_bytes / window;
  result.write_gbs =
      static_cast<double>(completed_writes) * config.line_bytes / window;
  result.mean_latency_ns =
      completed ? latency_sum / static_cast<double>(completed) : 0.0;
  return result;
}

}  // namespace p8::sim
