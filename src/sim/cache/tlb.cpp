#include "sim/cache/tlb.hpp"

#include <algorithm>
#include <bit>

#include "common/contract.hpp"
#include "common/error.hpp"

namespace p8::sim {

namespace {

SetAssocCache make_tlb(const TlbConfig& c) {
  return SetAssocCache(static_cast<std::uint64_t>(c.tlb_entries) * c.page_bytes,
                       c.tlb_ways, c.page_bytes);
}

}  // namespace

Tlb::Tlb(const TlbConfig& config)
    : config_(config),
      erat_(config.erat_entries, kNoPage),
      tlb_(make_tlb(config)) {
  P8_REQUIRE(config.erat_entries >= 1 && config.tlb_entries >= 1,
             "translation structures need at least one entry");
  P8_REQUIRE(config.tlb_entries % config.tlb_ways == 0,
             "TLB entries must be a whole number of sets");
  // page_bytes is a power of two (the TLB constructor enforced it).
  page_shift_ = static_cast<unsigned>(std::countr_zero(config.page_bytes));
  P8_ENSURE(tlb_.sets() * tlb_.ways() == config.tlb_entries,
            "TLB geometry must account for every configured entry");
}

TlbOutcome Tlb::translate(std::uint64_t addr) {
  const std::uint64_t page = addr >> page_shift_;
  std::uint64_t* const erat = erat_.data();
  // Rank 0 is the last-translation register: nothing to move.
  if (erat[0] == page) {
    events_.erat_hit.add();
    return TlbOutcome::kEratHit;
  }
  // Find the page's rank, stopping at the last slot: on a hit slots
  // 0..r-1 move back one place over it, on a miss they move back over
  // the last slot (empty or LRU), and the page takes slot 0 either way.
  const std::size_t last = erat_.size() - 1;
  std::size_t r = 0;
  while (r < last && erat[r] != page) ++r;
  const bool hit = erat[r] == page;
  std::copy_backward(erat, erat + r, erat + r + 1);
  erat[0] = page;
  if (hit) {
    events_.erat_hit.add();
    return TlbOutcome::kEratHit;
  }
  events_.erat_miss.add();
  if (tlb_.touch_install(addr)) {
    events_.tlb_hit.add();
    return TlbOutcome::kTlbHit;
  }
  events_.walk.add();
  P8_ENSURE(erat[0] == page && tlb_.probe(addr),
            "a walk must leave the page resident in both ERAT and TLB");
  return TlbOutcome::kWalk;
}

void Tlb::attach_counters(CounterRegistry* registry,
                          const std::string& prefix) {
  const std::string p = prefix + ".";
  events_.erat_hit = make_counter(registry, p, "erat.hit");
  events_.erat_miss = make_counter(registry, p, "erat.miss");
  events_.tlb_hit = make_counter(registry, p, "tlb.hit");
  events_.walk = make_counter(registry, p, "walk");
}

double Tlb::penalty_ns(TlbOutcome outcome) const {
  switch (outcome) {
    case TlbOutcome::kEratHit:
      return 0.0;
    case TlbOutcome::kTlbHit:
      return config_.erat_miss_ns;
    case TlbOutcome::kWalk:
      return config_.walk_ns;
  }
  return 0.0;
}

void Tlb::clear() {
  std::fill(erat_.begin(), erat_.end(), kNoPage);
  tlb_.clear();
  P8_ENSURE(std::all_of(erat_.begin(), erat_.end(),
                        [](std::uint64_t p) { return p == kNoPage; }) &&
                tlb_.resident_lines() == 0,
            "clear must empty both translation structures");
}

}  // namespace p8::sim
