#include "workloads/binary_tree.hpp"

#include <unordered_map>
#include <vector>

#include "runtime/pipeline.hpp"
#include "runtime/rwlock.hpp"
#include "workloads/runner.hpp"

namespace osim {

namespace {

constexpr std::uint64_t kOpSetupInstr = 30;
constexpr std::uint64_t kStepInstr = 12;

// ---------------------------------------------------------------------------
// Unversioned tree (shared by the sequential baseline and the rwlock run)

struct UNode {
  std::uint64_t key;
  UNode* left = nullptr;
  UNode* right = nullptr;
  bool alive = true;
};

class UTree {
 public:
  explicit UTree(Env& env) : env_(env) {}

  void populate(const std::vector<std::uint64_t>& keys) {
    for (std::uint64_t k : keys) insert_host(k);
  }

  bool lookup(std::uint64_t key) {
    env_.exec(kOpSetupInstr);
    UNode* cur = env_.ld(root_);
    while (cur != nullptr) {
      const std::uint64_t ck = env_.ld(cur->key);
      if (ck == key) return env_.ld(cur->alive);
      env_.exec(kStepInstr);
      cur = key < ck ? env_.ld(cur->left) : env_.ld(cur->right);
    }
    return false;
  }

  std::uint64_t scan(std::uint64_t key, int range) {
    env_.exec(kOpSetupInstr);
    std::uint64_t sum = 0;
    int remaining = range;
    scan_rec(env_.ld(root_), key, remaining, sum);
    return sum;
  }

  bool insert(std::uint64_t key) { return set_alive(key, true); }
  bool erase(std::uint64_t key) { return set_alive(key, false); }

 private:
  bool set_alive(std::uint64_t key, bool alive) {
    env_.exec(kOpSetupInstr);
    UNode* cur = env_.ld(root_);
    UNode* parent = nullptr;
    bool went_left = false;
    while (cur != nullptr) {
      const std::uint64_t ck = env_.ld(cur->key);
      if (ck == key) {
        if (env_.ld(cur->alive) == alive) return false;
        env_.st(cur->alive, alive);
        return true;
      }
      env_.exec(kStepInstr);
      parent = cur;
      went_left = key < ck;
      cur = went_left ? env_.ld(cur->left) : env_.ld(cur->right);
    }
    if (!alive) return false;  // delete of an absent key
    auto* n = new_node(key);
    if (parent == nullptr) {
      env_.st(root_, n);
    } else if (went_left) {
      env_.st(parent->left, n);
    } else {
      env_.st(parent->right, n);
    }
    return true;
  }

  void scan_rec(UNode* n, std::uint64_t key, int& remaining,
                std::uint64_t& sum) {
    if (n == nullptr || remaining == 0) return;
    const std::uint64_t ck = env_.ld(n->key);
    env_.exec(kStepInstr);
    if (ck >= key) {
      scan_rec(env_.ld(n->left), key, remaining, sum);
      if (remaining == 0) return;
      if (env_.ld(n->alive)) {
        sum += ck;
        --remaining;
      }
      if (remaining == 0) return;
    }
    scan_rec(env_.ld(n->right), key, remaining, sum);
  }

  void insert_host(std::uint64_t key) {
    UNode** where = &root_;
    while (*where != nullptr) {
      if ((*where)->key == key) {
        (*where)->alive = true;
        return;
      }
      where = key < (*where)->key ? &(*where)->left : &(*where)->right;
    }
    *where = new_node(key);
  }

  UNode* new_node(std::uint64_t key) {
    UNode* n = env_.make<UNode>();
    n->key = key;
    return n;
  }

  Env& env_;
  UNode* root_ = nullptr;
};

// ---------------------------------------------------------------------------
// Versioned tree

struct VNode {
  VNode(Env& env, std::uint64_t k) : key(k), left(env), right(env), alive(env) {}
  const std::uint64_t key;
  versioned<VNode*> left;
  versioned<VNode*> right;
  versioned<std::uint64_t> alive;
};

class VTree {
 public:
  explicit VTree(Env& env) : env_(env), ticket_(env) {}

  void populate(const std::vector<std::uint64_t>& keys) {
    VNode* root = nullptr;
    for (std::uint64_t k : keys) {
      VNode** where = &root;
      while (*where != nullptr) {
        where = k < (*where)->key ? &host_left_[*where] : &host_right_[*where];
      }
      *where = new_node(k, kSetupVersion);
    }
    // Publish the host-built shape as version kSetupVersion.
    publish(root);
    ticket_.init(root, kSetupVersion);
  }

  std::uint64_t lookup(TaskId tid, Ver prev, std::uint64_t key) {
    env_.exec(kOpSetupInstr);
    VNode* cur = ticket_.enter_ro(prev);
    (void)tid;
    while (cur != nullptr) {
      const std::uint64_t ck = env_.ld(cur->key);
      if (ck == key) return cur->alive.load_latest(tid);
      env_.exec(kStepInstr);
      cur = key < ck ? cur->left.load_latest(tid) : cur->right.load_latest(tid);
    }
    return 0;
  }

  std::uint64_t scan(TaskId tid, Ver prev, std::uint64_t key, int range) {
    env_.exec(kOpSetupInstr);
    VNode* root = ticket_.enter_ro(prev);
    (void)tid;
    std::uint64_t sum = 0;
    int remaining = range;
    scan_rec(root, tid, key, remaining, sum);
    return sum;
  }

  std::uint64_t insert(TaskId tid, Ver prev, std::uint64_t key) {
    return set_alive(tid, prev, key, true);
  }
  std::uint64_t erase(TaskId tid, Ver prev, std::uint64_t key) {
    return set_alive(tid, prev, key, false);
  }

 private:
  /// Insert (alive=1) or logical-delete (alive=0) under the mutator
  /// protocol: the path is locked hand-over-hand, the final edge or alive
  /// flag is renamed to version tid.
  std::uint64_t set_alive(TaskId tid, Ver prev, std::uint64_t key,
                          bool alive) {
    env_.exec(kOpSetupInstr);
    VNode* cur = ticket_.enter_mut(tid, prev);
    if (cur == nullptr) {
      if (!alive) {
        ticket_.leave_mut(tid, prev);
        return 0;
      }
      VNode* n = new_node(key, tid);
      ticket_.leave_mut(tid, prev, n);
      return 1;
    }
    HandOverHand<VNode*> hoh(tid);
    bool root_held = true;
    auto release_prev = [&] {
      if (root_held) {
        ticket_.leave_mut(tid, prev);
        root_held = false;
      } else {
        hoh.release_unchanged();
      }
    };
    while (true) {
      const std::uint64_t ck = env_.ld(cur->key);
      if (ck == key) {
        // Lock the alive flag before releasing the edge that led here.
        Ver lv = 0;
        const std::uint64_t was = cur->alive.lock_load_last(tid, tid, &lv);
        release_prev();
        std::uint64_t changed = 0;
        if (was != static_cast<std::uint64_t>(alive)) {
          cur->alive.store_ver(alive ? 1 : 0, tid);
          changed = 1;
        }
        cur->alive.unlock_ver(lv, tid);
        return changed;
      }
      env_.exec(kStepInstr);
      versioned<VNode*>& edge = key < ck ? cur->left : cur->right;
      // Acquire the next edge, then release the previous hold. advance()
      // releases hoh's own hold; the root ticket is released by hand after
      // the first acquisition.
      Ver lv = 0;
      VNode* child = edge.lock_load_last(tid, tid, &lv);
      release_prev();
      hoh.adopt(edge, lv);
      if (child == nullptr) {
        if (!alive) {
          hoh.release_unchanged();
          return 0;  // delete of an absent key
        }
        VNode* n = new_node(key, tid);
        hoh.modify_and_release(n);
        return 1;
      }
      cur = child;
    }
  }

  void scan_rec(VNode* n, TaskId tid, std::uint64_t key, int& remaining,
                std::uint64_t& sum) {
    if (n == nullptr || remaining == 0) return;
    const std::uint64_t ck = env_.ld(n->key);
    env_.exec(kStepInstr);
    if (ck >= key) {
      scan_rec(n->left.load_latest(tid), tid, key, remaining, sum);
      if (remaining == 0) return;
      if (n->alive.load_latest(tid) != 0) {
        sum += ck;
        --remaining;
      }
      if (remaining == 0) return;
    }
    scan_rec(n->right.load_latest(tid), tid, key, remaining, sum);
  }

  void publish(VNode* n) {
    if (n == nullptr) return;
    VNode* l = host_left_.count(n) ? host_left_[n] : nullptr;
    VNode* r = host_right_.count(n) ? host_right_[n] : nullptr;
    n->left.store_ver(l, kSetupVersion);
    n->right.store_ver(r, kSetupVersion);
    publish(l);
    publish(r);
  }

  VNode* new_node(std::uint64_t key, Ver ver) {
    VNode* n = env_.make<VNode>(env_, key);
    if (ver != kSetupVersion) {
      // Setup-version nodes get their fields published later in one pass.
      n->left.store_ver(nullptr, ver);
      n->right.store_ver(nullptr, ver);
      n->alive.store_ver(1, ver);
    } else {
      n->alive.store_ver(1, kSetupVersion);
    }
    return n;
  }

  Env& env_;
  TicketRoot<VNode*> ticket_;
  // Host-side shape used only during populate().
  std::unordered_map<VNode*, VNode*> host_left_;
  std::unordered_map<VNode*, VNode*> host_right_;
};

}  // namespace

RunResult binary_tree_sequential(Env& env, const DsSpec& spec) {
  return run_ops_sequential(env, spec, *env.make<UTree>(env));
}

RunResult binary_tree_versioned(Env& env, const DsSpec& spec, int cores) {
  return run_ops_versioned(env, spec, cores, *env.make<VTree>(env));
}

RunResult binary_tree_rwlock(Env& env, const DsSpec& spec, int cores) {
  UTree* tree = env.make<UTree>(env);
  SimRWLock* lock = env.make<SimRWLock>(env);
  return run_task_per_op(
      env, spec, cores, [tree, &spec] { tree->populate(initial_keys(spec)); },
      [tree, lock, &spec](TaskId, Ver, const Op& op) {
        // Writers exclude everyone; readers share the lock.
        const bool writer = is_mutator(op.kind);
        writer ? lock->lock() : lock->lock_shared();
        const std::uint64_t result = apply_op(*tree, op, spec.scan_range);
        writer ? lock->unlock() : lock->unlock_shared();
        return result;
      });
}

}  // namespace osim
