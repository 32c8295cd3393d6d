// Unversioned sorted singly-linked chain: the sequential linked list is one
// chain and each sequential hash-table bucket is another. The chain is a
// view over a head pointer that lives in the structure (an arena field or
// array slot), so the simulated accesses land where the structure keeps it.
#pragma once

#include <cstdint>

#include "runtime/env.hpp"

namespace osim {

/// Instructions charged per node a chain walk passes (loop control and the
/// key compare). The versioned list and hash table walk at the same cost.
inline constexpr std::uint64_t kChainStepInstr = 10;

struct ChainNode {
  std::uint64_t key;
  ChainNode* next;
};

class SortedChain {
 public:
  /// Each op charges `setup_instr` (the owner's per-op setup) first.
  SortedChain(Env& env, ChainNode*& head, std::uint64_t setup_instr)
      : env_(env), head_(head), setup_instr_(setup_instr) {}

  bool lookup(std::uint64_t key);
  /// Sum of the keys of the first `range` nodes at or after `key`.
  std::uint64_t scan(std::uint64_t key, int range);
  bool insert(std::uint64_t key);
  bool erase(std::uint64_t key);

 private:
  struct Position {
    ChainNode* prev;  ///< last node below key; nullptr at the head
    ChainNode* cur;   ///< first node at or above key; nullptr past the end
  };

  /// Charge the op setup and walk to the first node whose key is >= key.
  Position seek(std::uint64_t key);
  bool holds(ChainNode* cur, std::uint64_t key) {
    return cur != nullptr && env_.ld(cur->key) == key;
  }
  /// The pointer that leads to `pos.cur`: the head or prev's next field.
  ChainNode*& link(const Position& pos) {
    return pos.prev == nullptr ? head_ : pos.prev->next;
  }

  Env& env_;
  ChainNode*& head_;
  std::uint64_t setup_instr_;
};

}  // namespace osim
