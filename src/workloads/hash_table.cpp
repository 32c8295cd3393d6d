#include "workloads/hash_table.hpp"

#include <algorithm>
#include <vector>

#include "runtime/pipeline.hpp"
#include "workloads/runner.hpp"
#include "workloads/sorted_chain.hpp"

namespace osim {

namespace {

constexpr std::uint64_t kOpSetupInstr = 40;  // includes the hash computation

std::size_t bucket_count(const DsSpec& spec) {
  // Load factor ~8 with the stable footprint of the generated op mix.
  std::size_t b = 16;
  while (b * 8 < spec.initial_size) b *= 2;
  return b;
}

std::size_t hash_of(std::uint64_t key, std::size_t buckets) {
  std::uint64_t h = key * 0x9e3779b97f4a7c15ull;
  h ^= h >> 29;
  return static_cast<std::size_t>(h) & (buckets - 1);
}

// ---------------------------------------------------------------------------
// Unversioned: one sorted chain per bucket.

class UHash {
 public:
  UHash(Env& env, std::size_t buckets)
      : env_(env),
        heads_(env.make_array<ChainNode*>(buckets)),
        buckets_(buckets) {}

  void populate(const std::vector<std::uint64_t>& keys) {
    for (std::uint64_t k : keys) {
      ChainNode** where = &heads_[hash_of(k, buckets_)];
      while (*where != nullptr && (*where)->key < k) where = &(*where)->next;
      if (*where != nullptr && (*where)->key == k) continue;
      *where = env_.make<ChainNode>(ChainNode{k, *where});
    }
  }

  bool lookup(std::uint64_t key) { return bucket(key).lookup(key); }
  /// A hash table has no key order to scan: a scan is a lookup.
  bool scan(std::uint64_t key, int) { return lookup(key); }
  bool insert(std::uint64_t key) { return bucket(key).insert(key); }
  bool erase(std::uint64_t key) { return bucket(key).erase(key); }

 private:
  SortedChain bucket(std::uint64_t key) {
    return {env_, heads_[hash_of(key, buckets_)], kOpSetupInstr};
  }

  Env& env_;
  ChainNode** heads_;  // arena array: timed accesses index into it
  std::size_t buckets_;
};

// ---------------------------------------------------------------------------
// Versioned

struct VNode {
  VNode(Env& env, std::uint64_t k) : key(k), next(env) {}
  const std::uint64_t key;
  versioned<VNode*> next;
};

class VHash {
 public:
  VHash(Env& env, std::size_t buckets) : env_(env), ticket_(env) {
    heads_.reserve(buckets);
    for (std::size_t i = 0; i < buckets; ++i) heads_.emplace_back(env);
  }

  void populate(const std::vector<std::uint64_t>& keys) {
    std::vector<std::vector<std::uint64_t>> per_bucket(heads_.size());
    for (std::uint64_t k : keys) per_bucket[hash_of(k, heads_.size())].push_back(k);
    for (std::size_t b = 0; b < heads_.size(); ++b) {
      auto& ks = per_bucket[b];
      std::sort(ks.begin(), ks.end());
      VNode* next = nullptr;
      for (auto it = ks.rbegin(); it != ks.rend(); ++it) {
        VNode* n = new_node(*it);
        n->next.store_ver(next, kSetupVersion);
        next = n;
      }
      heads_[b].store_ver(next, kSetupVersion);
    }
    ticket_.init(0, kSetupVersion);
  }

  std::uint64_t lookup(TaskId tid, Ver prev, std::uint64_t key) {
    env_.exec(kOpSetupInstr);
    ticket_.enter_ro(prev);
    (void)tid;
    VNode* cur = heads_[hash_of(key, heads_.size())].load_latest(tid);
    while (cur != nullptr && env_.ld(cur->key) < key) {
      env_.exec(kChainStepInstr);
      cur = cur->next.load_latest(tid);
    }
    return (cur != nullptr && env_.ld(cur->key) == key) ? 1 : 0;
  }

  std::uint64_t scan(TaskId tid, Ver prev, std::uint64_t key, int) {
    return lookup(tid, prev, key);
  }

  std::uint64_t insert(TaskId tid, Ver prev, std::uint64_t key) {
    env_.exec(kOpSetupInstr);
    ticket_.enter_mut(tid, prev);
    HandOverHand<VNode*> hoh(tid);
    VNode* cur = hoh.advance(heads_[hash_of(key, heads_.size())]);
    ticket_.leave_mut(tid, prev);  // bucket head locked: admit the next task
    while (cur != nullptr && env_.ld(cur->key) < key) {
      env_.exec(kChainStepInstr);
      cur = hoh.advance(cur->next);
    }
    if (cur != nullptr && env_.ld(cur->key) == key) {
      hoh.release_unchanged();
      return 0;
    }
    VNode* n = new_node(key);
    n->next.store_ver(cur, tid);
    hoh.modify_and_release(n);
    return 1;
  }

  std::uint64_t erase(TaskId tid, Ver prev, std::uint64_t key) {
    env_.exec(kOpSetupInstr);
    ticket_.enter_mut(tid, prev);
    HandOverHand<VNode*> hoh(tid);
    VNode* cur = hoh.advance(heads_[hash_of(key, heads_.size())]);
    ticket_.leave_mut(tid, prev);
    while (cur != nullptr && env_.ld(cur->key) < key) {
      env_.exec(kChainStepInstr);
      cur = hoh.advance(cur->next);
    }
    if (cur == nullptr || env_.ld(cur->key) != key) {
      hoh.release_unchanged();
      return 0;
    }
    // hoh holds the edge pointing at the victim; lock the victim's next
    // field too, rename the edge past it, then release both.
    Ver second = 0;
    VNode* after = cur->next.lock_load_last(tid, tid, &second);
    hoh.modify_and_release(after);
    cur->next.unlock_ver(second, tid);
    return 1;
  }

 private:
  VNode* new_node(std::uint64_t key) { return env_.make<VNode>(env_, key); }

  Env& env_;
  TicketRoot<std::uint64_t> ticket_;
  std::vector<versioned<VNode*>> heads_;
};

}  // namespace

RunResult hash_table_sequential(Env& env, const DsSpec& spec) {
  return run_ops_sequential(env, spec,
                            *env.make<UHash>(env, bucket_count(spec)));
}

RunResult hash_table_versioned(Env& env, const DsSpec& spec, int cores) {
  return run_ops_versioned(env, spec, cores,
                           *env.make<VHash>(env, bucket_count(spec)));
}

}  // namespace osim
