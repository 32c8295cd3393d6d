#include "core/version_list.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "core/fault.hpp"

namespace osim {

namespace detail {

void fault_not_list_head() {
  throw OFault(FaultKind::kNotListHead,
               "version block list entered past its head");
}

}  // namespace detail

int list_length(const BlockPool& pool, BlockIndex head) {
  int n = 0;
  for (BlockIndex b = head; b != kNullBlock; b = pool[b].next) ++n;
  return n;
}

InsertResult list_insert(BlockPool& pool, BlockIndex* root, BlockIndex fresh,
                         bool sorted) {
  detail::check_head_bit(pool, *root);
  InsertResult r;
  r.block = fresh;
  VersionBlock& nb = pool[fresh];
  if (nb.state != BlockState::kLive) {
    throw std::logic_error("version block " + std::to_string(fresh) +
                           " inserted into a list while not live (state " +
                           std::to_string(static_cast<int>(nb.state)) + ")");
  }

  if (!sorted) {
    // Ablation mode: always push at head. Shadowing is tracked for the
    // in-order-creation case (the paper notes in-order is the common case).
    const BlockIndex old_head = *root;
    nb.next = old_head;
    nb.head = true;
    if (old_head != kNullBlock) {
      pool[old_head].head = false;
      if (pool[old_head].version < nb.version) {
        r.shadowed = old_head;
      } else {
        r.shadowed = fresh;  // born shadowed by the (newer) old head
        r.order_kept = false;
      }
    }
    *root = fresh;
    r.at_head = true;
    return r;
  }

  // Sorted insert, newest (largest version) first.
  BlockIndex prev = kNullBlock;
  BlockIndex cur = *root;
  while (cur != kNullBlock && pool[cur].version > nb.version) {
    ++r.blocks_walked;
    prev = cur;
    cur = pool[cur].next;
  }
  if (cur != kNullBlock && pool[cur].version == nb.version) {
    fault_duplicate_version(nb.version);
  }
  nb.next = cur;
  if (prev == kNullBlock) {
    // New head: it shadows the previous newest version (if any).
    nb.head = true;
    if (*root != kNullBlock) {
      pool[*root].head = false;
      r.shadowed = *root;
    }
    *root = fresh;
    r.at_head = true;
  } else {
    // Mid-list insert: a newer version already exists, so the new block is
    // born shadowed (only tasks in [v, next-newer) can ever read it).
    pool[prev].next = fresh;
    r.pred = prev;
    r.shadowed = fresh;
  }
  return r;
}

int list_unlink(BlockPool& pool, BlockIndex* root, BlockIndex b) {
  assert(*root != kNullBlock);
  if (*root == b) {
    VersionBlock& vb = pool[b];
    *root = vb.next;
    vb.head = false;
    if (*root != kNullBlock) pool[*root].head = true;
    return 1;
  }
  int walked = 1;
  BlockIndex prev = *root;
  while (pool[prev].next != b) {
    prev = pool[prev].next;
    assert(prev != kNullBlock && "block not found in its list");
    ++walked;
  }
  pool[prev].next = pool[b].next;
  pool[b].next = kNullBlock;
  return walked + 1;
}

}  // namespace osim
