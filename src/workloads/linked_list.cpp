#include "workloads/linked_list.hpp"

#include <algorithm>
#include <vector>

#include "runtime/pipeline.hpp"
#include "workloads/runner.hpp"
#include "workloads/sorted_chain.hpp"

namespace osim {

namespace {

// Per-op setup charged by both variants (loop control, compares).
constexpr std::uint64_t kOpSetupInstr = 30;

// ---------------------------------------------------------------------------
// Unversioned (sequential baseline): one sorted chain.

class UList {
 public:
  explicit UList(Env& env) : env_(env) {}

  void populate(const std::vector<std::uint64_t>& keys) {
    std::vector<std::uint64_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    ChainNode* prev = nullptr;
    for (std::uint64_t k : sorted) {
      auto* n = env_.make<ChainNode>(ChainNode{k, nullptr});
      (prev == nullptr ? head_ : prev->next) = n;
      prev = n;
    }
  }

  bool lookup(std::uint64_t key) { return chain().lookup(key); }
  std::uint64_t scan(std::uint64_t key, int range) {
    return chain().scan(key, range);
  }
  bool insert(std::uint64_t key) { return chain().insert(key); }
  bool erase(std::uint64_t key) { return chain().erase(key); }

 private:
  SortedChain chain() { return {env_, head_, kOpSetupInstr}; }

  Env& env_;
  ChainNode* head_ = nullptr;
};

// ---------------------------------------------------------------------------
// Versioned (task-parallel)

struct VNode {
  VNode(Env& env, std::uint64_t k) : key(k), next(env) {}
  const std::uint64_t key;
  versioned<VNode*> next;
};

class VList {
 public:
  explicit VList(Env& env) : env_(env), ticket_(env) {}

  /// Setup-phase population (runs on core 0, unmeasured).
  void populate(const std::vector<std::uint64_t>& keys) {
    std::vector<std::uint64_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    VNode* first = nullptr;
    VNode* prev = nullptr;
    for (std::uint64_t k : sorted) {
      VNode* n = new_node(k);
      if (prev == nullptr) {
        first = n;
      } else {
        prev->next.store_ver(n, kSetupVersion);
      }
      prev = n;
    }
    if (prev != nullptr) prev->next.store_ver(nullptr, kSetupVersion);
    ticket_.init(first, kSetupVersion);
  }

  std::uint64_t lookup(TaskId tid, Ver prev, std::uint64_t key) {
    env_.exec(kOpSetupInstr);
    VNode* cur = ticket_.enter_ro(prev);
    (void)tid;
    while (cur != nullptr && env_.ld(cur->key) < key) {
      env_.exec(kChainStepInstr);
      cur = cur->next.load_latest(tid);
    }
    return (cur != nullptr && env_.ld(cur->key) == key) ? 1 : 0;
  }

  std::uint64_t scan(TaskId tid, Ver prev, std::uint64_t key, int range) {
    env_.exec(kOpSetupInstr);
    VNode* cur = ticket_.enter_ro(prev);
    (void)tid;
    while (cur != nullptr && env_.ld(cur->key) < key) {
      env_.exec(kChainStepInstr);
      cur = cur->next.load_latest(tid);
    }
    std::uint64_t sum = 0;
    for (int i = 0; i < range && cur != nullptr; ++i) {
      sum += env_.ld(cur->key);
      env_.exec(kChainStepInstr);
      cur = cur->next.load_latest(tid);
    }
    return sum;
  }

  std::uint64_t insert(TaskId tid, Ver prev, std::uint64_t key) {
    env_.exec(kOpSetupInstr);
    VNode* cur = ticket_.enter_mut(tid, prev);
    if (cur == nullptr || env_.ld(cur->key) >= key) {
      if (cur != nullptr && env_.ld(cur->key) == key) {
        ticket_.leave_mut(tid, prev);
        return 0;  // duplicate
      }
      VNode* n = new_node(key);
      n->next.store_ver(cur, tid);
      ticket_.leave_mut(tid, prev, n);
      return 1;
    }
    HandOverHand<VNode*> hoh(tid);
    VNode* nxt = hoh.advance(cur->next);
    ticket_.leave_mut(tid, prev);  // root released only after the first deep lock
    while (nxt != nullptr && env_.ld(nxt->key) < key) {
      env_.exec(kChainStepInstr);
      VNode* after = hoh.advance(nxt->next);
      cur = nxt;
      nxt = after;
    }
    if (nxt != nullptr && env_.ld(nxt->key) == key) {
      hoh.release_unchanged();
      return 0;
    }
    VNode* n = new_node(key);
    n->next.store_ver(nxt, tid);
    hoh.modify_and_release(n);
    return 1;
  }

  std::uint64_t erase(TaskId tid, Ver prev, std::uint64_t key) {
    env_.exec(kOpSetupInstr);
    VNode* cur = ticket_.enter_mut(tid, prev);
    if (cur == nullptr || env_.ld(cur->key) > key) {
      ticket_.leave_mut(tid, prev);
      return 0;
    }
    if (env_.ld(cur->key) == key) {
      // Unlink the first node: the root value is renamed to its successor.
      HandOverHand<VNode*> hoh(tid);
      VNode* nxt = hoh.advance(cur->next);
      ticket_.leave_mut(tid, prev, nxt);
      hoh.release_unchanged();
      return 1;
    }
    HandOverHand<VNode*> hoh(tid);
    VNode* nxt = hoh.advance(cur->next);
    ticket_.leave_mut(tid, prev);
    while (nxt != nullptr && env_.ld(nxt->key) < key) {
      env_.exec(kChainStepInstr);
      VNode* after = hoh.advance(nxt->next);
      cur = nxt;
      nxt = after;
    }
    if (nxt == nullptr || env_.ld(nxt->key) != key) {
      hoh.release_unchanged();
      return 0;
    }
    // Two locks held across the unlink: cur->next (held by hoh) and
    // nxt->next. Renaming cur->next past the victim keeps the old version
    // visible to older readers (snapshot isolation through a delete).
    Ver second = 0;
    VNode* after = nxt->next.lock_load_last(tid, tid, &second);
    hoh.modify_and_release(after);
    nxt->next.unlock_ver(second, tid);
    return 1;
  }

 private:
  VNode* new_node(std::uint64_t key) { return env_.make<VNode>(env_, key); }

  Env& env_;
  TicketRoot<VNode*> ticket_;
};

}  // namespace

RunResult linked_list_sequential(Env& env, const DsSpec& spec) {
  return run_ops_sequential(env, spec, *env.make<UList>(env));
}

RunResult linked_list_versioned(Env& env, const DsSpec& spec, int cores) {
  return run_ops_versioned(env, spec, cores, *env.make<VList>(env));
}

}  // namespace osim
