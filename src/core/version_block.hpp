// Version blocks and the hardware-managed free list (paper Sec. III).
//
// A version block is the 16-byte unit of O-structure storage:
//   version id (32b) | next pointer (30b) | locked-by (32b) | head bit | data
// Blocks live in a pool of simulated physical memory; "physical pointers"
// are pool indices (bounded to 30 bits like the paper's next field). The
// host-side struct carries extra bookkeeping (owning slot, GC state,
// generation) that a hardware implementation derives structurally; none of
// it counts toward the modelled 16-byte footprint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/types.hpp"

namespace osim {

using BlockIndex = std::uint32_t;

/// Null "physical pointer". The paper's next field is 30 bits; we reserve
/// the all-ones 30-bit pattern.
inline constexpr BlockIndex kNullBlock = (1u << 30) - 1;

/// locked_by value of an unlocked version. Task IDs start at 1.
inline constexpr TaskId kNoTask = 0;

/// GC lifecycle of a block (paper Sec. III-B): free -> live -> shadowed ->
/// pending -> free.
enum class BlockState : std::uint8_t { kFree, kLive, kShadowed, kPending };

/// Modelled fields (the 16-byte structure): version, next, head, locked_by
/// and data. Host bookkeeping (not modelled storage): state, generation and
/// slot. The host struct packs into 48 bytes, and the fields every list
/// walk reads (version, next, head) lead it: with a 48-byte stride they sit
/// in one 16-byte-aligned span, so no walk step straddles two host cache
/// lines. The modelled address of a block comes from its index
/// (version_block_addr), not from this layout.
struct VersionBlock {
  Ver version = 0;
  BlockIndex next = kNullBlock;
  bool head = false;
  BlockState state = BlockState::kFree;
  std::uint32_t generation = 0;  ///< bumped on free; guards stale GC refs
  TaskId locked_by = kNoTask;
  std::uint64_t data = 0;
  std::uint64_t slot = 0;  ///< owning O-structure slot, for GC unlink
};
static_assert(sizeof(VersionBlock) == 48);

/// Pool of version blocks with an intrusive free list threaded through the
/// `next` fields, as in the paper ("version blocks are just ordinary memory
/// structures"). Growth happens through an explicit OS-trap entry point so
/// the manager can charge trap latency and count traps.
///
/// Blocks are carved on first use. The pool reserves storage for all
/// size() blocks, but constructs a block only when alloc() first hands it
/// out, so the OS commits a page of a large pool only when a block on it is
/// first used. The never-used blocks form one "fresh" index range
/// [fresh_begin_, fresh_end_), carved top index first.
///
/// Order invariant: alloc() returns freed blocks LIFO, then never-used
/// blocks in descending index order — exactly the order of a free list
/// threaded through every block when it was added. version_block_addr
/// (index) feeds the cache model, so this order is part of the
/// bit-identical contract (tests/test_version_list.cpp checks it against
/// such an eager list).
class BlockPool {
 public:
  explicit BlockPool(std::size_t initial_blocks) { grow(initial_blocks); }
  ~BlockPool();
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  /// Pop a block from the free list, else carve the next never-used one;
  /// returns kNullBlock when exhausted (the caller must then raise the OS
  /// trap and grow()).
  BlockIndex alloc() {
    BlockIndex b = free_head_;
    if (b != kNullBlock) {
      free_head_ = blocks_[b].next;
    } else if (fresh_end_ != fresh_begin_) {
      b = --fresh_end_;
      std::construct_at(&blocks_[b]);
    } else {
      return kNullBlock;
    }
    --free_count_;
    VersionBlock& vb = blocks_[b];
    vb.next = kNullBlock;
    vb.head = false;
    vb.locked_by = kNoTask;
    vb.state = BlockState::kLive;
    return b;
  }

  /// Return a block to the free list and bump its generation.
  void free(BlockIndex b) {
    VersionBlock& vb = blocks_[b];
    vb.state = BlockState::kFree;
    vb.generation++;
    push_free(b);
  }

  /// Add `n` blocks (the runtime's trap handler). Pool size is capped by
  /// the 30-bit physical pointer width; past it the pool faults
  /// kResourceExhausted (fault_block_pool_exhausted).
  void grow(std::size_t n);

  VersionBlock& operator[](BlockIndex b) { return blocks_[b]; }
  const VersionBlock& operator[](BlockIndex b) const { return blocks_[b]; }

  /// Blocks alloc() can still hand out (freed plus never used).
  std::size_t free_count() const { return free_count_; }
  /// Blocks the pool owns, carved or not.
  std::size_t size() const { return size_; }

 private:
  void push_free(BlockIndex b) {
    blocks_[b].next = free_head_;
    free_head_ = b;
    ++free_count_;
  }

  /// Make room for `blocks` blocks without constructing any.
  void reserve(std::size_t blocks);

  VersionBlock* blocks_ = nullptr;  ///< malloc'd, room for capacity_ blocks
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
  BlockIndex free_head_ = kNullBlock;
  BlockIndex fresh_begin_ = 0;
  BlockIndex fresh_end_ = 0;
  std::size_t free_count_ = 0;
};

}  // namespace osim
