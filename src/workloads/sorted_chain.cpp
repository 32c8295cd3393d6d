#include "workloads/sorted_chain.hpp"

namespace osim {

SortedChain::Position SortedChain::seek(std::uint64_t key) {
  env_.exec(setup_instr_);
  Position pos{nullptr, env_.ld(head_)};
  while (pos.cur != nullptr && env_.ld(pos.cur->key) < key) {
    env_.exec(kChainStepInstr);
    pos.prev = pos.cur;
    pos.cur = env_.ld(pos.cur->next);
  }
  return pos;
}

bool SortedChain::lookup(std::uint64_t key) { return holds(seek(key).cur, key); }

std::uint64_t SortedChain::scan(std::uint64_t key, int range) {
  ChainNode* cur = seek(key).cur;
  std::uint64_t sum = 0;
  for (int i = 0; i < range && cur != nullptr; ++i) {
    sum += env_.ld(cur->key);
    env_.exec(kChainStepInstr);
    cur = env_.ld(cur->next);
  }
  return sum;
}

bool SortedChain::insert(std::uint64_t key) {
  const Position pos = seek(key);
  if (holds(pos.cur, key)) return false;
  auto* n = env_.make<ChainNode>(ChainNode{key, pos.cur});
  env_.st(n->next, pos.cur);
  env_.st(link(pos), n);
  return true;
}

bool SortedChain::erase(std::uint64_t key) {
  const Position pos = seek(key);
  if (!holds(pos.cur, key)) return false;
  env_.st(link(pos), env_.ld(pos.cur->next));
  return true;
}

}  // namespace osim
