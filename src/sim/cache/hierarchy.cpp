#include "sim/cache/hierarchy.hpp"

#include "common/contract.hpp"
#include "common/error.hpp"

namespace p8::sim {

const char* to_string(ServiceLevel level) {
  switch (level) {
    case ServiceLevel::kL1:
      return "L1";
    case ServiceLevel::kL2:
      return "L2";
    case ServiceLevel::kL3Local:
      return "L3(local)";
    case ServiceLevel::kL3Remote:
      return "L3(remote)";
    case ServiceLevel::kL4:
      return "L4";
    case ServiceLevel::kDram:
      return "DRAM";
  }
  return "?";
}

double HierarchyLatencies::of(ServiceLevel level) const {
  switch (level) {
    case ServiceLevel::kL1:
      return l1_ns;
    case ServiceLevel::kL2:
      return l2_ns;
    case ServiceLevel::kL3Local:
      return l3_local_ns;
    case ServiceLevel::kL3Remote:
      return l3_remote_ns;
    case ServiceLevel::kL4:
      return l4_ns;
    case ServiceLevel::kDram:
      return dram_ns;
  }
  return 0.0;
}

HierarchyConfig HierarchyConfig::from_spec(const arch::SystemSpec& spec,
                                           const NocParams& noc) {
  HierarchyConfig c;
  const auto& core = spec.processor.core;
  c.line_bytes = spec.processor.cache_line_bytes;
  c.l1_bytes = core.l1d_bytes;
  c.l2_bytes = core.l2_bytes;
  c.l3_bytes = core.l3_bytes;
  c.chip_cores = spec.cores_per_chip;
  c.l4_bytes = static_cast<std::uint64_t>(spec.centaurs_per_chip) *
               spec.centaur.l4_bytes;
  c.latency.dram_ns = noc.local_dram_latency_ns;
  return c;
}

namespace {

SetAssocCache make_victim_pool(const HierarchyConfig& c) {
  // The other (chip_cores - 1) L3 regions.  When victim forwarding is
  // disabled (ablation) we still need a non-zero cache object; a
  // single-line cache that is never consulted keeps the code uniform.
  if (!c.victim_l3 || c.victim_bytes() == 0)
    return SetAssocCache(c.line_bytes, 1, c.line_bytes);
  return SetAssocCache(c.victim_bytes(), HierarchyConfig::kPoolWays,
                       c.line_bytes);
}

}  // namespace

ChipMemoryModel::ChipMemoryModel(const HierarchyConfig& config)
    : config_(config),
      l1_(config.l1_bytes, config.l1_ways, config.line_bytes),
      l2_(config.l2_bytes, config.l2_ways, config.line_bytes),
      l3_(config.l3_bytes, config.l3_ways, config.line_bytes),
      l3_victim_(make_victim_pool(config)),
      l4_(config.l4_bytes, HierarchyConfig::kPoolWays, config.line_bytes) {
  P8_REQUIRE(config.chip_cores >= 1, "chip needs at least one core");
  P8_ENSURE(l1_.line_bytes() == l2_.line_bytes() &&
                l2_.line_bytes() == l3_.line_bytes() &&
                l3_.line_bytes() == l3_victim_.line_bytes() &&
                l3_victim_.line_bytes() == l4_.line_bytes(),
            "every level must use the same line size or cast-outs would "
            "change granularity mid-hierarchy");
  P8_ENSURE(l1_.capacity_bytes() < l2_.capacity_bytes() &&
                l2_.capacity_bytes() < l3_.capacity_bytes(),
            "demand levels must grow strictly downward");
}

void ChipMemoryModel::cast_into_victim(const SetAssocCache::Eviction& line) {
  events_.l3_evict.add();
  // A line leaving the on-chip SRAM: clean copies vanish (a valid copy
  // exists in L4/DRAM), dirty ones cross the Centaur write link.
  auto leave_sram = [&](const SetAssocCache::Eviction& out) {
    if (!out.dirty) return;
    events_.memlink_write.add();
    if (const auto ev4 = l4_.install_line(out.line, /*dirty=*/true);
        ev4 && ev4->dirty)
      events_.dram_write.add();
  };
  if (config_.victim_l3) {
    if (const auto evv = l3_victim_.install_line(line.line, line.dirty)) {
      events_.l3_victim_evict.add();
      leave_sram(*evv);
    }
  } else {
    leave_sram(line);
  }
}

void ChipMemoryModel::cast_into_l3(const SetAssocCache::Eviction& line) {
  if (line.dirty) events_.l2_writeback.add();
  if (const auto ev3 = l3_.install_line(line.line, line.dirty))
    cast_into_victim(*ev3);
}

void ChipMemoryModel::fill_upper(std::uint64_t addr) {
  // Fill path into L1/L2/L3.  L1 evictions vanish (store-through; the
  // line remains in L2).  L2 evictions cast into the local L3; local
  // L3 evictions cast laterally into the victim pool (NUCA).
  l1_.install(addr);
  if (const auto ev2 = l2_.install_line(addr, /*dirty=*/false))
    cast_into_l3(*ev2);
  if (const auto ev3 = l3_.install_line(addr, /*dirty=*/false))
    cast_into_victim(*ev3);
}

void ChipMemoryModel::fill_l2_l3(std::uint64_t addr, bool l2_dirty,
                                 const SetAssocCache::Slot& l2_slot,
                                 const SetAssocCache::Slot& l3_slot) {
  // The L2 slot is always reusable here: between the L2 touch miss
  // that recorded it and this install, only the L1/L3/victim/L4 were
  // touched.  The L3 slot survives unless the L2 cast-out happens to
  // land in the same L3 set (then the recorded victim may be stale and
  // the install rescans).
  bool l3_slot_ok = true;
  if (const auto ev2 = l2_.install_line_at(l2_slot, addr, l2_dirty)) {
    l3_slot_ok = l3_.set_index(ev2->line) != l3_slot.set;
    cast_into_l3(*ev2);
  }
  const auto ev3 = l3_slot_ok ? l3_.install_line_at(l3_slot, addr, false)
                              : l3_.install_line(addr, false);
  if (ev3) cast_into_victim(*ev3);
}

ServiceLevel ChipMemoryModel::locate_and_fill(
    std::uint64_t addr, const SetAssocCache::Slot& l1_slot,
    const SetAssocCache::Slot& l2_slot) {
  // The L1 fill: nothing has touched the L1 since its touch miss, so
  // the recorded slot stands in for the scan.  On the store path the
  // L1 touch may have hit (no slot) — then the fill is the original
  // refresh install.
  const auto fill_l1 = [&] {
    if (l1_slot.recorded)
      l1_.install_line_at(l1_slot, addr, false);
    else
      l1_.install(addr);
  };
  SetAssocCache::Slot l3_slot;
  if (l3_.touch_slot(addr, l3_slot)) {
    events_.l3_local_hit.add();
    fill_l1();
    // Fill L2 with a clean copy; any dirty state stays with the L3
    // copy until it is evicted.
    if (const auto ev2 = l2_.install_line_at(l2_slot, addr, false))
      cast_into_l3(*ev2);
    return ServiceLevel::kL3Local;
  }
  // The line will be installed into L3 further down every miss path,
  // casting the L3 victim into the victim pool — whose set is a
  // different (cast-out-addressed) one than the demand set and would
  // otherwise be a cold host miss right at the end of the walk.  Hint
  // it now so it loads while the victim pool / L4 / DRAM are searched.
  const std::uint64_t l3_victim_line = l3_.slot_victim_line(l3_slot);
  if (config_.victim_l3 && l3_victim_line != SetAssocCache::kNoVictim)
    l3_victim_.prefetch_set(l3_victim_line);
  if (config_.victim_l3) {
    // Fused probe + dirty read + invalidate: one scan of the victim
    // pool's set instead of three (it is the largest SRAM structure,
    // so the extra scans were real cache misses on the host).
    if (const auto dirty = l3_victim_.take(addr)) {
      events_.l3_victim_hit.add();
      // Victim hit: the line migrates back to the requesting core.
      fill_l1();
      fill_l2_l3(addr, *dirty, l2_slot, l3_slot);
      return ServiceLevel::kL3Remote;
    }
  }
  events_.l3_miss.add();
  if (l4_.touch(addr)) {
    events_.l4_hit.add();
    events_.memlink_read.add();
    fill_l1();
    fill_l2_l3(addr, false, l2_slot, l3_slot);
    return ServiceLevel::kL4;
  }
  // DRAM.  The Centaur allocates the line in its memory-side L4 on
  // the way through.
  events_.dram_fill.add();
  events_.memlink_read.add();
  events_.dram_read.add();
  if (const auto ev4 = l4_.install_line(addr, /*dirty=*/false);
      ev4 && ev4->dirty)
    events_.dram_write.add();
  fill_l1();
  fill_l2_l3(addr, false, l2_slot, l3_slot);
  return ServiceLevel::kDram;
}

ServiceLevel ChipMemoryModel::access(std::uint64_t addr) {
  events_.loads.add();
  SetAssocCache::Slot l1_slot;
  if (l1_.touch_slot(addr, l1_slot)) {
    events_.l1_hit.add();
    return ServiceLevel::kL1;
  }
  events_.l1_miss.add();
  SetAssocCache::Slot l2_slot;
  if (l2_.touch_slot(addr, l2_slot)) {
    events_.l2_hit.add();
    l1_.install_line_at(l1_slot, addr, false);
    return ServiceLevel::kL2;
  }
  events_.l2_miss.add();
  const ServiceLevel from = locate_and_fill(addr, l1_slot, l2_slot);
  P8_ENSURE(l1_.probe(addr),
            "a demand miss must end with the line filled into L1");
  return from;
}

ServiceLevel ChipMemoryModel::access_write(std::uint64_t addr) {
  events_.stores.add();
  // Store-through L1: the L1 copy (if any) is updated but never holds
  // the only dirty copy; the store lands in the store-in L2.
  SetAssocCache::Slot l1_slot;
  (l1_.touch_slot(addr, l1_slot) ? events_.l1_hit : events_.l1_miss).add();
  SetAssocCache::Slot l2_slot;
  if (l2_.touch_slot(addr, l2_slot)) {
    events_.l2_hit.add();
    l2_.mark_dirty(addr);
    return ServiceLevel::kL2;
  }
  events_.l2_miss.add();
  // Write-allocate: fetch the line, then dirty it in L2.
  const ServiceLevel from = locate_and_fill(addr, l1_slot, l2_slot);
  l2_.mark_dirty(addr);
  P8_ENSURE(l2_.is_dirty(addr),
            "a store must leave the only dirty copy in the store-in L2");
  return from;
}

ServiceLevel ChipMemoryModel::lookup(std::uint64_t addr) const {
  if (l1_.probe(addr)) return ServiceLevel::kL1;
  if (l2_.probe(addr)) return ServiceLevel::kL2;
  if (l3_.probe(addr)) return ServiceLevel::kL3Local;
  if (config_.victim_l3 && l3_victim_.probe(addr))
    return ServiceLevel::kL3Remote;
  if (l4_.probe(addr)) return ServiceLevel::kL4;
  return ServiceLevel::kDram;
}

void ChipMemoryModel::install_prefetched(std::uint64_t addr) {
  events_.prefetch_install.add();
  l4_.install(addr);
  fill_upper(addr);
}

void ChipMemoryModel::attach_counters(CounterRegistry* registry,
                                      const std::string& prefix) {
  const std::string p = prefix + ".";
  events_.loads = make_counter(registry, p, "loads");
  events_.stores = make_counter(registry, p, "stores");
  events_.l1_hit = make_counter(registry, p, "l1.hit");
  events_.l1_miss = make_counter(registry, p, "l1.miss");
  events_.l2_hit = make_counter(registry, p, "l2.hit");
  events_.l2_miss = make_counter(registry, p, "l2.miss");
  events_.l2_writeback = make_counter(registry, p, "l2.writeback");
  events_.l3_local_hit = make_counter(registry, p, "l3.local.hit");
  events_.l3_victim_hit = make_counter(registry, p, "l3.victim.hit");
  events_.l3_miss = make_counter(registry, p, "l3.miss");
  events_.l3_evict = make_counter(registry, p, "l3.evict");
  events_.l3_victim_evict = make_counter(registry, p, "l3.victim.evict");
  events_.l4_hit = make_counter(registry, p, "l4.hit");
  events_.dram_fill = make_counter(registry, p, "dram.fill");
  events_.memlink_read = make_counter(registry, p, "memlink.read.lines");
  events_.memlink_write = make_counter(registry, p, "memlink.write.lines");
  events_.dram_read = make_counter(registry, p, "dram.read.lines");
  events_.dram_write = make_counter(registry, p, "dram.write.lines");
  events_.prefetch_install = make_counter(registry, p, "prefetch.install");
}

void ChipMemoryModel::clear() {
  l1_.clear();
  l2_.clear();
  l3_.clear();
  l3_victim_.clear();
  l4_.clear();
  P8_ENSURE(l1_.resident_lines() == 0 && l2_.resident_lines() == 0 &&
                l3_.resident_lines() == 0,
            "clear must empty the demand levels");
}

}  // namespace p8::sim
