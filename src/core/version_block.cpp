#include "core/version_block.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "core/fault.hpp"

namespace osim {

BlockPool::~BlockPool() { std::free(blocks_); }

void BlockPool::grow(std::size_t n) {
  const std::size_t old = size_;
  if (old + n >= kNullBlock) {
    fault_block_pool_exhausted(
        "serial", kNullBlock - 1,
        "grow by " + std::to_string(n) + " from " + std::to_string(old) +
            " blocks exceeds the 30-bit physical pointers");
  }
  reserve(old + n);
  size_ = old + n;
  if (free_count_ == 0) {
    // The OS trap on an exhausted pool: the new blocks are the fresh range.
    fresh_begin_ = static_cast<BlockIndex>(old);
    fresh_end_ = static_cast<BlockIndex>(old + n);
    free_count_ = n;
    return;
  }
  // Blocks are still free, so the new ones go in front of them, highest
  // index first (a fresh range is always carved after every listed block).
  for (std::size_t i = old; i < old + n; ++i) {
    std::construct_at(&blocks_[i]);
    push_free(static_cast<BlockIndex>(i));
  }
}

void BlockPool::reserve(std::size_t blocks) {
  if (blocks <= capacity_) return;
  // Uninitialized storage: the allocator maps a large pool fresh from the
  // OS, so its pages are committed only when alloc() first carves a block
  // on them, and realloc of such a mapping moves pages without copying.
  // Doubling keeps repeated small traps amortized.
  const std::size_t cap = std::max(blocks, 2 * capacity_);
  void* p = std::realloc(blocks_, cap * sizeof(VersionBlock));
  if (p == nullptr) throw std::bad_alloc();
  blocks_ = static_cast<VersionBlock*>(p);
  capacity_ = cap;
}

}  // namespace osim
