#include "workloads/rb_tree.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "runtime/pipeline.hpp"
#include "workloads/runner.hpp"

namespace osim {

namespace {

constexpr std::uint64_t kOpSetupInstr = 30;
constexpr std::uint64_t kStepInstr = 12;
constexpr std::uint64_t kBufferHitInstr = 2;

// ---------------------------------------------------------------------------
// The red-black algorithm, templated over a field-access policy. The policy
// supplies node type, field reads/writes, and node creation; the core
// provides descent, logical delete, and insert with CLRS-style fixup driven
// by an explicit ancestor stack (no parent pointers, so the versioned
// variant only versions left/right/alive).

template <typename P>
class RbCore {
 public:
  using Node = typename P::Node;

  explicit RbCore(P& p) : p_(p) {}

  std::uint64_t lookup(std::uint64_t key) {
    Node* cur = p_.root();
    while (cur != nullptr) {
      const std::uint64_t ck = p_.key(cur);
      if (ck == key) return p_.alive(cur) ? 1 : 0;
      p_.step();
      cur = key < ck ? p_.left(cur) : p_.right(cur);
    }
    return 0;
  }

  std::uint64_t erase(std::uint64_t key) {
    Node* cur = p_.root();
    while (cur != nullptr) {
      const std::uint64_t ck = p_.key(cur);
      if (ck == key) {
        if (!p_.alive(cur)) return 0;
        p_.set_alive(cur, false);
        return 1;
      }
      p_.step();
      cur = key < ck ? p_.left(cur) : p_.right(cur);
    }
    return 0;
  }

  std::uint64_t insert(std::uint64_t key) {
    std::vector<Node*> path;
    Node* cur = p_.root();
    while (cur != nullptr) {
      const std::uint64_t ck = p_.key(cur);
      if (ck == key) {
        if (p_.alive(cur)) return 0;
        p_.set_alive(cur, true);
        return 1;
      }
      p_.step();
      path.push_back(cur);
      cur = key < ck ? p_.left(cur) : p_.right(cur);
    }
    Node* z = p_.make_node(key);  // red, alive, leaf
    if (path.empty()) {
      p_.set_red(z, false);
      p_.set_root(z);
      return 1;
    }
    Node* parent = path.back();
    if (key < p_.key(parent)) {
      p_.set_left(parent, z);
    } else {
      p_.set_right(parent, z);
    }
    fixup(std::move(path), z);
    return 1;
  }

 private:
  void replace_child(Node* parent, Node* old_child, Node* new_child) {
    if (parent == nullptr) {
      p_.set_root(new_child);
    } else if (p_.left(parent) == old_child) {
      p_.set_left(parent, new_child);
    } else {
      p_.set_right(parent, new_child);
    }
  }

  /// Left-rotate around x (whose parent is xp). Returns the new subtree
  /// root (x's former right child).
  Node* rotate_left(Node* x, Node* xp) {
    Node* y = p_.right(x);
    p_.set_right(x, p_.left(y));
    p_.set_left(y, x);
    replace_child(xp, x, y);
    return y;
  }

  Node* rotate_right(Node* x, Node* xp) {
    Node* y = p_.left(x);
    p_.set_left(x, p_.right(y));
    p_.set_right(y, x);
    replace_child(xp, x, y);
    return y;
  }

  void fixup(std::vector<Node*> path, Node* z) {
    while (!path.empty() && p_.red(path.back())) {
      if (path.size() == 1) break;  // red root: blackened below
      Node* parent = path[path.size() - 1];
      Node* grand = path[path.size() - 2];
      Node* ggp = path.size() >= 3 ? path[path.size() - 3] : nullptr;
      p_.step();
      if (parent == p_.left(grand)) {
        Node* uncle = p_.right(grand);
        if (uncle != nullptr && p_.red(uncle)) {
          p_.set_red(parent, false);
          p_.set_red(uncle, false);
          p_.set_red(grand, true);
          z = grand;
          path.pop_back();
          path.pop_back();
        } else {
          if (z == p_.right(parent)) {
            rotate_left(parent, grand);
            std::swap(z, parent);  // z is now the lower node
          }
          p_.set_red(parent, false);
          p_.set_red(grand, true);
          rotate_right(grand, ggp);
          break;
        }
      } else {
        Node* uncle = p_.left(grand);
        if (uncle != nullptr && p_.red(uncle)) {
          p_.set_red(parent, false);
          p_.set_red(uncle, false);
          p_.set_red(grand, true);
          z = grand;
          path.pop_back();
          path.pop_back();
        } else {
          if (z == p_.left(parent)) {
            rotate_right(parent, grand);
            std::swap(z, parent);
          }
          p_.set_red(parent, false);
          p_.set_red(grand, true);
          rotate_left(grand, ggp);
          break;
        }
      }
    }
    p_.set_red(p_.root(), false);
  }

  P& p_;
};

// ---------------------------------------------------------------------------
// Unversioned policy (sequential baseline)

struct URNode {
  std::uint64_t key;
  URNode* left = nullptr;
  URNode* right = nullptr;
  bool red = true;
  bool alive = true;
};

class UPolicy {
 public:
  using Node = URNode;

  explicit UPolicy(Env& env) : env_(env) {}

  Node* root() { return env_.ld(root_); }
  void set_root(Node* n) { env_.st(root_, n); }
  Node* left(Node* n) { return env_.ld(n->left); }
  Node* right(Node* n) { return env_.ld(n->right); }
  void set_left(Node* n, Node* v) { env_.st(n->left, v); }
  void set_right(Node* n, Node* v) { env_.st(n->right, v); }
  bool red(Node* n) { return env_.ld(n->red); }
  void set_red(Node* n, bool r) { env_.st(n->red, r); }
  std::uint64_t key(Node* n) { return env_.ld(n->key); }
  bool alive(Node* n) { return env_.ld(n->alive); }
  void set_alive(Node* n, bool a) { env_.st(n->alive, a); }
  Node* make_node(std::uint64_t key) {
    URNode* n = env_.make<URNode>();
    n->key = key;
    return n;
  }
  void step() { env_.exec(kStepInstr); }

  Node* host_root() const { return root_; }

 private:
  Env& env_;
  Node* root_ = nullptr;
};

std::uint64_t scan_unversioned(Env& env, UPolicy& p, URNode* n,
                               std::uint64_t key, int& remaining) {
  if (n == nullptr || remaining == 0) return 0;
  std::uint64_t sum = 0;
  const std::uint64_t ck = p.key(n);
  env.exec(kStepInstr);
  if (ck >= key) {
    sum += scan_unversioned(env, p, p.left(n), key, remaining);
    if (remaining == 0) return sum;
    if (p.alive(n)) {
      sum += ck;
      --remaining;
    }
    if (remaining == 0) return sum;
  }
  return sum + scan_unversioned(env, p, p.right(n), key, remaining);
}

/// The sequential tree: RbCore's lookup/insert/erase over UPolicy, plus the
/// unversioned in-order scan.
class URbTree : public RbCore<UPolicy> {
 public:
  URbTree(Env& env, UPolicy& p) : RbCore(p), env_(env), policy_(p) {}

  void populate(const std::vector<std::uint64_t>& keys) {
    for (std::uint64_t k : keys) insert(k);
  }

  std::uint64_t scan(std::uint64_t key, int range) {
    env_.exec(kOpSetupInstr);
    int remaining = range;
    return scan_unversioned(env_, policy_, policy_.root(), key, remaining);
  }

 private:
  Env& env_;
  UPolicy& policy_;
};

// ---------------------------------------------------------------------------
// Versioned policy: single writer with a write buffer, committed once per
// touched field as version tid.

struct VRNode {
  VRNode(Env& env, std::uint64_t k)
      : key(k), left(env), right(env), alive(env) {}
  const std::uint64_t key;
  versioned<VRNode*> left;
  versioned<VRNode*> right;
  versioned<std::uint64_t> alive;
  bool red = true;  // writer-private; readers never look at colors
};

class WriterPolicy {
 public:
  using Node = VRNode;

  WriterPolicy(Env& env, TaskId tid, VRNode* root)
      : env_(env), tid_(tid), root_(root) {}

  Node* root() { return root_; }
  void set_root(Node* n) {
    root_ = n;
    root_changed_ = true;
  }
  Node* left(Node* n) { return read_ptr(n->left); }
  Node* right(Node* n) { return read_ptr(n->right); }
  void set_left(Node* n, Node* v) { write_ptr(n->left, v); }
  void set_right(Node* n, Node* v) { write_ptr(n->right, v); }
  bool red(Node* n) { return env_.ld(n->red); }
  void set_red(Node* n, bool r) { env_.st(n->red, r); }
  std::uint64_t key(Node* n) { return env_.ld(n->key); }
  bool alive(Node* n) { return read_alive(n->alive) != 0; }
  void set_alive(Node* n, bool a) { write_alive(n->alive, a ? 1 : 0); }
  Node* make_node(std::uint64_t key) {
    VRNode* n = env_.make<VRNode>(env_, key);
    // New-node fields go through the buffer too, so each versioned field is
    // stored exactly once at commit even if a rotation touches it again.
    write_ptr(n->left, nullptr);
    write_ptr(n->right, nullptr);
    write_alive(n->alive, 1);
    return n;
  }
  void step() { env_.exec(kStepInstr); }

  /// Publish every touched field as version tid (STORE-VERSION renaming).
  void commit() {
    for (auto& [field, value] : ptr_buf_) field->store_ver(value, tid_);
    for (auto& [field, value] : alive_buf_) field->store_ver(value, tid_);
  }

  bool root_changed() const { return root_changed_; }
  VRNode* new_root() const { return root_; }

 private:
  Node* read_ptr(versioned<VRNode*>& f) {
    for (auto& [field, value] : ptr_buf_) {
      if (field == &f) {
        env_.exec(kBufferHitInstr);
        return value;
      }
    }
    return f.load_latest(tid_);
  }
  void write_ptr(versioned<VRNode*>& f, VRNode* v) {
    env_.exec(kBufferHitInstr);
    for (auto& [field, value] : ptr_buf_) {
      if (field == &f) {
        value = v;
        return;
      }
    }
    ptr_buf_.emplace_back(&f, v);
  }
  std::uint64_t read_alive(versioned<std::uint64_t>& f) {
    for (auto& [field, value] : alive_buf_) {
      if (field == &f) {
        env_.exec(kBufferHitInstr);
        return value;
      }
    }
    return f.load_latest(tid_);
  }
  void write_alive(versioned<std::uint64_t>& f, std::uint64_t v) {
    env_.exec(kBufferHitInstr);
    for (auto& [field, value] : alive_buf_) {
      if (field == &f) {
        value = v;
        return;
      }
    }
    alive_buf_.emplace_back(&f, v);
  }

  Env& env_;
  TaskId tid_;
  VRNode* root_;
  // Insertion-ordered buffers (tiny: a handful of fields per operation);
  // deterministic commit order regardless of heap layout.
  std::vector<std::pair<versioned<VRNode*>*, VRNode*>> ptr_buf_;
  std::vector<std::pair<versioned<std::uint64_t>*, std::uint64_t>> alive_buf_;
  bool root_changed_ = false;
};

// Host-only policy used to shape the initial tree during setup (charges
// nothing; the shape is then published once at the setup version).
struct BuildNode {
  std::uint64_t key;
  BuildNode* left = nullptr;
  BuildNode* right = nullptr;
  bool red = true;
  bool alive = true;
};

class BuildPolicy {
 public:
  using Node = BuildNode;
  Node* root() { return root_; }
  void set_root(Node* n) { root_ = n; }
  Node* left(Node* n) { return n->left; }
  Node* right(Node* n) { return n->right; }
  void set_left(Node* n, Node* v) { n->left = v; }
  void set_right(Node* n, Node* v) { n->right = v; }
  bool red(Node* n) { return n->red; }
  void set_red(Node* n, bool r) { n->red = r; }
  std::uint64_t key(Node* n) { return n->key; }
  bool alive(Node* n) { return n->alive; }
  void set_alive(Node* n, bool a) { n->alive = a; }
  Node* make_node(std::uint64_t key) {
    nodes_.push_back(std::make_unique<BuildNode>());
    nodes_.back()->key = key;
    return nodes_.back().get();
  }
  void step() {}

 private:
  BuildNode* root_ = nullptr;
  std::vector<std::unique_ptr<BuildNode>> nodes_;
};

class VRbTree {
 public:
  explicit VRbTree(Env& env) : env_(env), ticket_(env) {}

  void populate(const std::vector<std::uint64_t>& keys) {
    BuildPolicy bp;
    RbCore<BuildPolicy> builder(bp);
    for (std::uint64_t k : keys) builder.insert(k);
    ticket_.init(mirror(bp.root()), kSetupVersion);
  }

  std::uint64_t lookup(TaskId tid, Ver prev, std::uint64_t key) {
    env_.exec(kOpSetupInstr);
    VRNode* cur = ticket_.enter_ro(prev);
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
    VRNode* root = ticket_.enter_ro(prev);
    (void)tid;
    int remaining = range;
    return scan_rec(root, tid, key, remaining);
  }

  std::uint64_t insert(TaskId tid, Ver prev, std::uint64_t key) {
    return writer_op(tid, prev, key, true);
  }
  std::uint64_t erase(TaskId tid, Ver prev, std::uint64_t key) {
    return writer_op(tid, prev, key, false);
  }

 private:
  /// One insert or logical delete, the single writer holding the root
  /// ticket throughout.
  std::uint64_t writer_op(TaskId tid, Ver prev, std::uint64_t key,
                          bool insert) {
    env_.exec(kOpSetupInstr);
    VRNode* root = ticket_.enter_mut(tid, prev);
    WriterPolicy p(env_, tid, root);
    RbCore<WriterPolicy> core(p);
    const std::uint64_t changed = insert ? core.insert(key) : core.erase(key);
    p.commit();
    ticket_.leave_mut(tid, prev,
                      p.root_changed() ? std::optional<VRNode*>(p.new_root())
                                       : std::nullopt);
    return changed;
  }

  /// Deep-copy the host-built shape into versioned nodes, publishing every
  /// field exactly once at the setup version.
  VRNode* mirror(BuildNode* b) {
    if (b == nullptr) return nullptr;
    VRNode* n = env_.make<VRNode>(env_, b->key);
    n->red = b->red;
    n->left.store_ver(mirror(b->left), kSetupVersion);
    n->right.store_ver(mirror(b->right), kSetupVersion);
    n->alive.store_ver(b->alive ? 1 : 0, kSetupVersion);
    return n;
  }

  std::uint64_t scan_rec(VRNode* n, TaskId tid, std::uint64_t key,
                         int& remaining) {
    if (n == nullptr || remaining == 0) return 0;
    std::uint64_t sum = 0;
    const std::uint64_t ck = env_.ld(n->key);
    env_.exec(kStepInstr);
    if (ck >= key) {
      sum += scan_rec(n->left.load_latest(tid), tid, key, remaining);
      if (remaining == 0) return sum;
      if (n->alive.load_latest(tid) != 0) {
        sum += ck;
        --remaining;
      }
      if (remaining == 0) return sum;
    }
    return sum + scan_rec(n->right.load_latest(tid), tid, key, remaining);
  }

  Env& env_;
  TicketRoot<VRNode*> ticket_;
};

}  // namespace

RunResult rb_tree_sequential(Env& env, const DsSpec& spec) {
  URbTree tree(env, *env.make<UPolicy>(env));
  return run_ops_sequential(env, spec, tree);
}

RunResult rb_tree_versioned(Env& env, const DsSpec& spec, int cores) {
  return run_ops_versioned(env, spec, cores, *env.make<VRbTree>(env));
}

bool rb_invariants_hold(Env& env, const std::vector<std::uint64_t>& keys) {
  UPolicy& p = *env.make<UPolicy>(env);
  bool ok = true;
  env.spawn(0, [&] {
    URbTree(env, p).populate(keys);
    // Validate: BST order, root black, no red-red, equal black heights.
    struct V {
      static int check(UPolicy& p, URNode* n, std::uint64_t lo,
                       std::uint64_t hi, bool parent_red, bool& ok) {
        if (n == nullptr) return 1;
        if (n->key < lo || n->key > hi) ok = false;
        if (parent_red && n->red) ok = false;
        const int lh =
            check(p, n->left, lo, n->key == 0 ? 0 : n->key - 1, n->red, ok);
        const int rh = check(p, n->right, n->key + 1, hi, n->red, ok);
        if (lh != rh) ok = false;
        return lh + (n->red ? 0 : 1);
      }
    };
    URNode* root = p.host_root();
    if (root != nullptr && root->red) ok = false;
    V::check(p, root, 0, ~std::uint64_t{0}, false, ok);
  });
  env.run();
  return ok;
}

}  // namespace osim
