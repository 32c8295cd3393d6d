#include "sim/cache.hpp"

#include <cassert>
#include <stdexcept>

namespace osim {

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg), sets_(cfg.num_sets()) {
  if (sets_ == 0) {
    throw std::invalid_argument("cache must hold at least one set");
  }
  if (cfg_.line_bytes != kLineBytes) {
    throw std::invalid_argument("only 64-byte lines are modelled");
  }
  if ((sets_ & (sets_ - 1)) == 0) set_mask_ = sets_ - 1;
  ways_.resize(sets_ * static_cast<std::size_t>(cfg_.ways));
}

Cache::Way* Cache::find(Addr line) {
  auto* base = &ways_[set_index(line) * cfg_.ways];
  const Addr key = line | Way::kValid;
  for (int i = 0; i < cfg_.ways; ++i) {
    if ((base[i].bits & ~Way::kDirty) == key) return &base[i];
  }
  return nullptr;
}

const Cache::Way* Cache::find(Addr line) const {
  return const_cast<Cache*>(this)->find(line);
}

bool Cache::contains(Addr addr) const { return find(line_of(addr)) != nullptr; }

bool Cache::dirty(Addr addr) const {
  const Way* w = find(line_of(addr));
  return w != nullptr && w->dirty();
}

bool Cache::access(Addr addr, bool write) {
  Way* w = find(line_of(addr));
  if (w == nullptr) return false;
  w->lru = ++tick_;
  if (write) w->bits |= Way::kDirty;
  return true;
}

Cache::Eviction Cache::fill(Addr addr, bool dirty) {
  const Addr line = line_of(addr);
  assert(find(line) == nullptr && "fill() of a line already present");
  auto* base = &ways_[set_index(line) * cfg_.ways];
  Way* victim = &base[0];
  for (int i = 0; i < cfg_.ways; ++i) {
    if (!base[i].valid()) {
      victim = &base[i];
      break;
    }
    if (base[i].lru < victim->lru) victim = &base[i];
  }
  Eviction ev;
  if (victim->valid()) {
    ev.valid = true;
    ev.line = victim->line();
    ev.dirty = victim->dirty();
  }
  victim->bits = line | Way::kValid | (dirty ? Way::kDirty : 0);
  victim->lru = ++tick_;
  return ev;
}

bool Cache::invalidate(Addr addr) {
  Way* w = find(line_of(addr));
  if (w == nullptr) return false;
  w->bits = 0;
  return true;
}

void Cache::clean(Addr addr) {
  if (Way* w = find(line_of(addr))) w->bits &= ~Way::kDirty;
}

void Cache::flush() {
  for (auto& w : ways_) w = Way{};
  tick_ = 0;
}

std::uint64_t Cache::occupied_lines() const {
  std::uint64_t n = 0;
  for (const auto& w : ways_) n += w.valid() ? 1 : 0;
  return n;
}

}  // namespace osim
