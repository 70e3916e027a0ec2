// SMP interconnect topology (Figure 1).
//
// The E870's eight chips form two groups of four.  Within a group each
// chip has three X-bus links — a full crossbar.  Between the two
// groups, each chip bundles its three A-bus links to the *partner*
// chip occupying the same position in the other group (chip0-chip4,
// chip1-chip5, ...).  The coherence protocol permits exactly one route
// for intra-group traffic (the direct X link) but spreads inter-group
// traffic over multiple routes — the mechanism behind the paper's
// counter-intuitive Table IV result that inter-group point bandwidth
// exceeds intra-group bandwidth.
#pragma once

#include <cstddef>
#include <vector>

#include "arch/spec.hpp"

namespace p8::arch {

enum class LinkKind { kXBus, kABus };

/// One bidirectional inter-chip link (an A-bus entry models the whole
/// three-link bundle between partner chips).
struct Link {
  int id = -1;
  int chip_a = -1;
  int chip_b = -1;
  LinkKind kind = LinkKind::kXBus;
  double gbs_per_direction = 0.0;  ///< capacity of each direction
  double latency_ns = 0.0;         ///< one-way hop latency
};

/// A directed traversal of one link.
struct Hop {
  int link = -1;
  int from = -1;
  int to = -1;
};

/// An ordered sequence of hops from source chip to destination chip.
using Route = std::vector<Hop>;

class Topology {
 public:
  /// Builds the link graph for `spec`.  Requires the chip count to be
  /// a multiple of the group size and at most two groups (the E870
  /// and smaller); larger multi-group fabrics would need A-links fanned
  /// out across groups, which this model does not implement.
  static Topology from_spec(const SystemSpec& spec);

  int chips() const { return chips_; }
  int chips_per_group() const { return chips_per_group_; }
  int groups() const { return chips_ / chips_per_group_; }
  int group_of(int chip) const { return chip / chips_per_group_; }
  /// The chip holding the same position in the other group, or -1 in a
  /// single-group system.
  int partner_of(int chip) const;

  const std::vector<Link>& links() const { return links_; }
  const Link& link(int id) const { return links_.at(static_cast<std::size_t>(id)); }

  /// Link id directly joining `a` and `b`, or -1.
  int link_between(int a, int b) const;

  /// All routes the protocol uses from `src` to `dst`, shortest first.
  /// Intra-group: exactly one (direct X).  Inter-group: the multipath
  /// set described above.  Empty when src == dst.
  std::vector<Route> routes(int src, int dst) const;

  /// End-to-end latency of a route: sum of hop latencies.
  double route_latency_ns(const Route& route) const;

  /// Latency of the shortest route, 0 for src == dst: one lookup in
  /// the table from_spec() fills.
  double min_latency_ns(int src, int dst) const;

 private:
  int chips_ = 0;
  int chips_per_group_ = 0;
  std::vector<Link> links_;
  std::vector<std::vector<int>> link_index_;  // chips x chips -> link id
  std::vector<double> min_latency_ns_;  // [src * chips + dst]
};

}  // namespace p8::arch
