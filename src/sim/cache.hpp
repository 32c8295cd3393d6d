// Tag-only set-associative cache model with LRU replacement.
//
// The simulator is execution-driven: data lives in host memory (or, for
// version blocks, in the manager's pool), so the caches track only presence,
// dirtiness and recency of 64-byte lines. That is all the paper's timing
// model needs: hit/miss classification and eviction behaviour.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "sim/config.hpp"

namespace osim {

class Cache {
 public:
  struct Eviction {
    bool valid = false;  ///< a line was evicted
    Addr line = 0;
    bool dirty = false;
  };

  explicit Cache(const CacheConfig& cfg);

  /// True if the line holding `addr` is present (does not touch recency).
  bool contains(Addr addr) const;

  /// True if the line is present *and* dirty.
  bool dirty(Addr addr) const;

  /// Probe and update recency. Returns true on hit; marks dirty on writes.
  bool access(Addr addr, bool write);

  /// Insert the line (after a miss), possibly evicting the set's LRU line.
  Eviction fill(Addr addr, bool dirty);

  /// Remove the line if present. Returns true if it was present.
  bool invalidate(Addr addr);

  /// Clear the dirty bit (after a writeback/downgrade). No-op if absent.
  void clean(Addr addr);

  /// Drop every line. Used between experiment repetitions.
  void flush();

  const CacheConfig& config() const { return cfg_; }
  std::uint64_t occupied_lines() const;

 private:
  // A way in 16 bytes: the full line address with the valid and dirty
  // flags in its low bits, which a 64-byte-aligned line address leaves free.
  struct Way {
    static constexpr Addr kValid = 1;
    static constexpr Addr kDirty = 2;
    Addr bits = 0;          // line | kValid | kDirty
    std::uint64_t lru = 0;  // larger = more recently used

    bool valid() const { return (bits & kValid) != 0; }
    bool dirty() const { return (bits & kDirty) != 0; }
    Addr line() const { return bits & kLineMask; }
  };
  static_assert(sizeof(Way) == 16);

  std::size_t set_index(Addr line) const {
    // Power-of-two set counts (the common case: every Table II L1) index
    // with a mask; others (e.g. the 1536-set L2) fall back to modulo.
    const std::uint64_t n = line / kLineBytes;
    return static_cast<std::size_t>(set_mask_ != 0 ? (n & set_mask_)
                                                   : n % sets_);
  }
  Way* find(Addr line);
  const Way* find(Addr line) const;

  CacheConfig cfg_;
  std::size_t sets_;
  std::uint64_t set_mask_ = 0;  // sets_ - 1 when sets_ is a power of two
  std::vector<Way> ways_;  // sets_ * cfg_.ways, row-major by set
  std::uint64_t tick_ = 0;
};

}  // namespace osim
