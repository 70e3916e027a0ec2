#include "arch/topology.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace p8::arch {

namespace {

// One-way X-bus hop latency.  The base reflects the on-fabric distance
// of an intra-group hop; the extra term models the physical layout
// differences the paper cites to explain why chip0<->chip1/2/3
// latencies differ slightly (Table IV: 123/125/133 ns end to end).
double xbus_latency_ns(int pos_a, int pos_b) {
  static constexpr double kBase = 28.0;
  static constexpr double kLayoutExtra[4] = {0.0, 0.0, 2.0, 10.0};
  const int dist = std::abs(pos_a - pos_b);
  // Positions beyond the E870's four-chip group (larger configured
  // groups, e.g. a 16-socket system as two groups of eight) extend the
  // measured layout penalty linearly with in-group distance.
  if (dist > 3) return kBase + kLayoutExtra[3] + 6.0 * (dist - 3);
  return kBase + kLayoutExtra[dist];
}

// One-way A-bus hop latency (partner-chip bundle).  Inter-group hops
// cross the node midplane, which is why they cost roughly 4x an X hop
// (Table IV: chip0<->chip4 is 213 ns vs ~95 ns local).
constexpr double kAbusLatencyNs = 118.0;

}  // namespace

Topology Topology::from_spec(const SystemSpec& spec) {
  Topology t;
  t.chips_ = spec.total_chips();
  t.chips_per_group_ = std::min(spec.chips_per_group, t.chips_);
  P8_REQUIRE(t.chips_ >= 1, "system must have at least one chip");
  P8_REQUIRE(t.chips_ % t.chips_per_group_ == 0,
             "chip count must be a whole number of groups");
  P8_REQUIRE(t.groups() <= 2, "model supports at most two chip groups");

  t.link_index_.assign(static_cast<std::size_t>(t.chips_),
                       std::vector<int>(static_cast<std::size_t>(t.chips_), -1));

  auto add_link = [&](int a, int b, LinkKind kind, double gbs, double lat) {
    Link l;
    l.id = static_cast<int>(t.links_.size());
    l.chip_a = a;
    l.chip_b = b;
    l.kind = kind;
    l.gbs_per_direction = gbs;
    l.latency_ns = lat;
    t.link_index_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = l.id;
    t.link_index_[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] = l.id;
    t.links_.push_back(l);
  };

  // X-bus crossbar inside each group.
  const int g = t.chips_per_group_;
  for (int group = 0; group < t.groups(); ++group) {
    const int base = group * g;
    for (int i = 0; i < g; ++i)
      for (int j = i + 1; j < g; ++j)
        add_link(base + i, base + j, LinkKind::kXBus, spec.xbus_gbs,
                 xbus_latency_ns(i, j));
  }

  // A-bus bundles between partner chips of the two groups.
  if (t.groups() == 2) {
    for (int i = 0; i < g; ++i)
      add_link(i, g + i, LinkKind::kABus,
               spec.abus_gbs * spec.abus_links_per_pair, kAbusLatencyNs);
  }

  // Shortest-route latency of every chip pair, so each hop-cost read
  // (latency probes, NoC latency, the predictor) is one lookup.
  t.min_latency_ns_.assign(static_cast<std::size_t>(t.chips_) * t.chips_, 0.0);
  for (int src = 0; src < t.chips_; ++src)
    for (int dst = 0; dst < t.chips_; ++dst) {
      const std::vector<Route> all = t.routes(src, dst);  // empty if src == dst
      double best = all.empty() ? 0.0 : t.route_latency_ns(all.front());
      for (const Route& r : all) best = std::min(best, t.route_latency_ns(r));
      t.min_latency_ns_[static_cast<std::size_t>(src) * t.chips_ + dst] = best;
    }
  return t;
}

int Topology::partner_of(int chip) const {
  if (groups() < 2) return -1;
  return chip < chips_per_group_ ? chip + chips_per_group_
                                 : chip - chips_per_group_;
}

int Topology::link_between(int a, int b) const {
  P8_REQUIRE(a >= 0 && a < chips_ && b >= 0 && b < chips_, "chip out of range");
  return link_index_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
}

std::vector<Route> Topology::routes(int src, int dst) const {
  P8_REQUIRE(src >= 0 && src < chips_ && dst >= 0 && dst < chips_,
             "chip out of range");
  std::vector<Route> out;
  if (src == dst) return out;

  auto hop = [&](int from, int to) {
    Hop h;
    h.link = link_between(from, to);
    P8_ASSERT(h.link >= 0, "expected direct link");
    h.from = from;
    h.to = to;
    return h;
  };

  if (group_of(src) == group_of(dst)) {
    // Protocol restriction: a single direct route within a group.
    out.push_back(Route{hop(src, dst)});
    return out;
  }

  const int g = chips_per_group_;
  const int src_base = group_of(src) * g;
  const int src_partner = partner_of(src);
  const int dst_partner = partner_of(dst);

  if (dst == src_partner) {
    // Direct A bundle, then the indirect X-A-X detours through every
    // other chip of the source group.
    out.push_back(Route{hop(src, dst)});
    for (int i = 0; i < g; ++i) {
      const int via = src_base + i;
      if (via == src) continue;
      out.push_back(Route{hop(src, via), hop(via, partner_of(via)),
                          hop(partner_of(via), dst)});
    }
    return out;
  }

  // Non-partner inter-group: A-first and X-first two-hop routes, plus
  // the three-hop detours through the remaining chips of the source
  // group.
  out.push_back(Route{hop(src, dst_partner), hop(dst_partner, dst)});
  out.push_back(Route{hop(src, src_partner), hop(src_partner, dst)});
  for (int i = 0; i < g; ++i) {
    const int via = src_base + i;
    if (via == src || via == dst_partner) continue;
    out.push_back(Route{hop(src, via), hop(via, partner_of(via)),
                        hop(partner_of(via), dst)});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Route& a, const Route& b) {
                     return a.size() < b.size();
                   });
  return out;
}

double Topology::route_latency_ns(const Route& route) const {
  double total = 0.0;
  for (const Hop& h : route) total += link(h.link).latency_ns;
  return total;
}

double Topology::min_latency_ns(int src, int dst) const {
  P8_REQUIRE(src >= 0 && src < chips_ && dst >= 0 && dst < chips_,
             "chip out of range");
  return min_latency_ns_[static_cast<std::size_t>(src) * chips_ + dst];
}

}  // namespace p8::arch
