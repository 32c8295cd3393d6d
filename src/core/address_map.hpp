// Synthetic address regions for simulated structures.
//
// Workload data is execution-driven: host pointers double as simulated
// addresses. Structures that the paper places in *simulated physical memory*
// (version blocks, O-structure root pointers, free-list head) get synthetic
// addresses in a reserved high region so the cache models see realistic
// spatial locality (e.g. four 16-byte version blocks share a 64-byte line).
//
// Host allocations on Linux x86-64 never reach these addresses (user space
// tops out at 2^47), so the regions cannot collide with workload data.
#pragma once

#include "core/types.hpp"

namespace osim {

/// Base of the version-block pool region. Block i models a 16-byte structure
/// at kVersionBlockBase + 16*i (paper Sec. III: 16-byte version blocks).
inline constexpr Addr kVersionBlockBase = Addr{1} << 56;

/// Modelled size of one version block (paper: 16 bytes; 12 bytes metadata +
/// 4 bytes data in the 32-bit design).
inline constexpr Addr kVersionBlockBytes = 16;

/// Base of the O-structure root-pointer table. O-structure slot s has its
/// root pointer (physical address of the head of the version block list) at
/// kRootTableBase + 8*s.
inline constexpr Addr kRootTableBase = Addr{1} << 57;

/// Modelled size of a root-pointer entry.
inline constexpr Addr kRootEntryBytes = 8;

/// Address of the hardware free-list head register's memory image. The
/// free list is banked per core (each CPU carries its own O-Structure
/// Manager, paper Fig. 2), so allocations do not ping-pong one line.
inline constexpr Addr kFreeListHeadAddr = Addr{1} << 58;

constexpr Addr free_list_addr(int core) {
  return kFreeListHeadAddr + static_cast<Addr>(core) * kLineBytes;
}

/// Base of the O-structure user-visible region: slot s is the 8-byte word at
/// kOStructBase + 8*s. All pages in this region have the page-table
/// versioned bit set once allocated; conventional accesses fault.
inline constexpr Addr kOStructBase = Addr{1} << 59;

/// Base of the deterministic image of conventional (host-backed) workload
/// data. Env translates each host cache line to a synthetic line in this
/// region in first-touch order, so timing does not depend on the host
/// allocator's layout and every run is bit-reproducible.
inline constexpr Addr kConventionalBase = Addr{1} << 61;

/// Base of the compressed version-block lines: one 64-byte L1 line per
/// O-structure slot. (The paper keys compressed lines by the physical
/// address of the list head; a stable per-slot line is timing-equivalent
/// and avoids re-keying on every head change.)
inline constexpr Addr kCompressedBase = Addr{1} << 60;

/// Synthetic address of version block `index`.
constexpr Addr version_block_addr(std::uint32_t index) {
  return kVersionBlockBase + kVersionBlockBytes * static_cast<Addr>(index);
}

/// Synthetic address of the root pointer of O-structure slot `slot`.
constexpr Addr root_addr(std::uint64_t slot) {
  return kRootTableBase + kRootEntryBytes * slot;
}

/// User-visible address of O-structure slot `slot`.
constexpr Addr ostruct_addr(std::uint64_t slot) {
  return kOStructBase + 8 * slot;
}

/// ostruct_slot's answer for an address that is not a slot word.
inline constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};

/// Inverse of ostruct_addr: the slot whose word is `a`, or kNoSlot when
/// `a` is not an 8-byte word of the O-structure region. Both engines
/// resolve addresses through it; kNoSlot fails every bounds check.
constexpr std::uint64_t ostruct_slot(Addr a) {
  return a < kOStructBase || (a - kOStructBase) % 8 != 0
             ? kNoSlot
             : (a - kOStructBase) / 8;
}

/// Synthetic L1 line address of slot `slot`'s compressed version blocks.
constexpr Addr compressed_addr(std::uint64_t slot) {
  return kCompressedBase + static_cast<Addr>(kLineBytes) * slot;
}

/// Inverse of compressed_addr (valid only for addresses in the region).
constexpr std::uint64_t slot_of_compressed(Addr a) {
  return (a - kCompressedBase) / kLineBytes;
}

/// True if `a` lies in the compressed-line region.
constexpr bool is_compressed_addr(Addr a) {
  return a >= kCompressedBase && a < kCompressedBase + (Addr{1} << 59);
}

}  // namespace osim
