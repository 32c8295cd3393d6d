#include "sim/memory_system.hpp"

#include <cassert>

namespace osim {

namespace {
std::uint64_t bit(CoreId c) { return std::uint64_t{1} << c; }
}  // namespace

MemorySystem::MemorySystem(const MachineConfig& cfg,
                           telemetry::MetricRegistry& reg)
    : cfg_(cfg),
      counters_(static_cast<std::size_t>(cfg.num_cores)),
      l2_(cfg.l2_config()) {
  assert(cfg.num_cores >= 1 && cfg.num_cores <= 64);
  using C = PerCoreCounters;
  reg.counter_fields_external(
      telemetry::Component::kCache, counters_.data(),
      {{"loads", &C::loads}, {"stores", &C::stores}, {"l1_hits", &C::l1_hits},
       {"l1_misses", &C::l1_misses}, {"l2_hits", &C::l2_hits},
       {"l2_misses", &C::l2_misses}, {"remote_l1_fills", &C::remote_l1_fills},
       {"upgrades", &C::upgrades}});
  l1s_.reserve(static_cast<std::size_t>(cfg.num_cores));
  for (int i = 0; i < cfg.num_cores; ++i) l1s_.emplace_back(cfg.l1);
}

void MemorySystem::drop_from_l1(CoreId core, Addr line) {
  if (l1s_[static_cast<std::size_t>(core)].invalidate(line)) {
    if (DirEntry* de = dir_.find(line)) {
      de->sharers &= ~bit(core);
      if (de->owner == core) de->owner = -1;
      if (de->sharers == 0 && de->owner == -1) dir_.erase(line);
    }
    if (drop_observer_) drop_observer_(core, line);
  }
}

bool MemorySystem::invalidate_copies(CoreId except, Addr line) {
  const DirEntry* de = dir_.find(line);
  if (de == nullptr) return false;
  bool any = false;
  const std::uint64_t sharers = de->sharers;
  const CoreId owner = de->owner;
  for (int c = 0; c < cfg_.num_cores; ++c) {
    if (c == except) continue;
    if ((sharers & bit(c)) != 0 || owner == c) {
      drop_from_l1(c, line);
      any = true;
    }
  }
  return any;
}

void MemorySystem::fill_l2_line(Addr line) {
  if (l2_.contains(line)) return;
  Cache::Eviction ev = l2_.fill(line, /*dirty=*/false);
  if (ev.valid) {
    // Inclusive L2: back-invalidate the victim from every L1.
    for (int c = 0; c < cfg_.num_cores; ++c) drop_from_l1(c, ev.line);
  }
}

void MemorySystem::fill_l1_line(CoreId core, Addr line, bool dirty) {
  Cache& l1 = l1s_[static_cast<std::size_t>(core)];
  // access() doubles as "touch if present": it refreshes recency and the
  // dirty bit exactly as the old contains()+access() pair did, in one probe.
  if (l1.access(line, dirty)) return;
  Cache::Eviction ev = l1.fill(line, dirty);
  if (ev.valid) {
    // Writebacks land in the (inclusive) L2; bandwidth is not modelled.
    if (DirEntry* de = dir_.find(ev.line)) {
      de->sharers &= ~bit(core);
      if (de->owner == core) de->owner = -1;
      if (de->sharers == 0 && de->owner == -1) dir_.erase(ev.line);
    }
    if (drop_observer_) drop_observer_(core, ev.line);
  }
}

Cycles MemorySystem::access(CoreId core, Addr addr, AccessType type,
                            AccessOptions opts) {
  const Addr line = line_of(addr);
  const bool write = type == AccessType::kWrite;
  PerCoreCounters& pc = counters_[static_cast<std::size_t>(core)];
  (write ? pc.stores : pc.loads)++;

  Cache& l1 = l1s_[static_cast<std::size_t>(core)];
  DirEntry& de = dir_[line];  // default-constructed if absent

  if (l1.access(line, write)) {
    pc.l1_hits++;
    Cycles lat = cfg_.l1.hit_latency;
    if (write && de.owner != core) {
      // Upgrade: invalidate the other sharers before writing.
      pc.upgrades++;
      const bool had_remote = invalidate_copies(core, line);
      if (had_remote) lat += cfg_.invalidate_latency;
      // invalidate_copies may have erased the entry; re-establish ownership.
      DirEntry& de2 = dir_[line];
      de2.sharers = bit(core);
      de2.owner = core;
    }
    return lat;
  }

  pc.l1_misses++;
  Cycles lat = cfg_.l1.hit_latency;  // tag probe before going down

  // Remote L1 holds the line modified: cache-to-cache forward.
  if (de.owner != -1 && de.owner != core) {
    pc.remote_l1_fills++;
    lat += cfg_.remote_l1_latency;
    const CoreId owner = de.owner;
    if (write) {
      drop_from_l1(owner, line);
    } else {
      // Downgrade the owner to shared; its dirty data reaches the L2.
      l1s_[static_cast<std::size_t>(owner)].clean(line);
      dir_[line].owner = -1;
      fill_l2_line(line);
    }
  } else if (l2_.access(line, /*write=*/false)) {
    pc.l2_hits++;
    lat += cfg_.l2_hit_latency;
    if (write) {
      if (invalidate_copies(core, line)) lat += cfg_.invalidate_latency;
    }
  } else {
    pc.l2_misses++;
    lat += cfg_.l2_hit_latency;  // L2 lookup that missed
    lat += cfg_.dram_latency;
    if (write && invalidate_copies(core, line)) lat += cfg_.invalidate_latency;
    fill_l2_line(line);
  }

  if (opts.fill_l1) {
    fill_l1_line(core, line, write);
    DirEntry& de2 = dir_[line];
    if (write) {
      de2.sharers = bit(core);
      de2.owner = core;
    } else {
      de2.sharers |= bit(core);
    }
  } else {
    // No-fill access: data is returned (reads) or written through to the
    // L2 (writes; the O-structure hardware keeps the compressed line as the
    // L1-resident copy instead). The line stays in L2 only.
    if (write) l2_.access(line, /*write=*/true);
    DirEntry& de2 = dir_[line];
    if (de2.sharers == 0 && de2.owner == -1) dir_.erase(line);
  }
  return lat;
}

void MemorySystem::install_line(CoreId core, Addr addr, bool dirty) {
  const Addr line = line_of(addr);
  fill_l1_line(core, line, dirty);
  DirEntry& de = dir_[line];
  de.sharers |= std::uint64_t{1} << core;
  if (dirty) de.owner = core;
}

Cycles MemorySystem::invalidate_others(CoreId except, Addr addr) {
  const Addr line = line_of(addr);
  return invalidate_copies(except, line) ? cfg_.invalidate_latency : 0;
}

bool MemorySystem::line_in_l1(CoreId core, Addr addr) const {
  return l1s_[static_cast<std::size_t>(core)].contains(line_of(addr));
}

void MemorySystem::flush_all() {
  for (auto& c : l1s_) c.flush();
  l2_.flush();
  dir_.clear();
}

}  // namespace osim
