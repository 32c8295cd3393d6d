#include "analysis/checker.hpp"

#include <algorithm>

#include "core/isa.hpp"

namespace osim::analysis {

const char* id(Invariant inv) {
  switch (inv) {
    case Invariant::kDeterminacyRace:
      return "VC-RACE";
    case Invariant::kDoubleFree:
      return "LC-DOUBLE-FREE";
    case Invariant::kStoreAfterShadow:
      return "LC-STORE-SHADOW";
    case Invariant::kFreeListCorruption:
      return "LC-FREELIST";
    case Invariant::kUseAfterReclaim:
      return "LC-USE-RECLAIM";
    case Invariant::kUnlockWithoutLock:
      return "LK-UNHELD";
    case Invariant::kDoubleUnlock:
      return "LK-DOUBLE-UNLOCK";
    case Invariant::kDoubleAcquire:
      return "LK-DOUBLE-ACQUIRE";
    case Invariant::kLockHeldAtTaskEnd:
      return "LK-HELD-AT-END";
    case Invariant::kLockOrderCycle:
      return "LK-ORDER-CYCLE";
    case Invariant::kPrematureReclaim:
      return "GC-PREMATURE";
    case Invariant::kWawSameVersion:
      return "ST-WAW";
    case Invariant::kTaskPairing:
      return "ST-TASK-PAIRING";
    case Invariant::kReadNeverWritten:
      return "ST-READ-UNWRITTEN";
  }
  return "?";
}

std::string to_string(const Finding& f) {
  std::string s = f.severity == Severity::kError ? "[error] " : "[warning] ";
  s += id(f.invariant);
  s += " @" + std::to_string(f.time);
  if (f.addr != 0) s += " addr=" + std::to_string(f.addr);
  if (f.version != 0) s += " v=" + std::to_string(f.version);
  if (f.task != 0) s += " task=" + std::to_string(f.task);
  if (f.other_task != 0) s += " other=" + std::to_string(f.other_task);
  s += ": " + f.detail;
  return s;
}

Checker::Checker(int num_cores, CheckerOptions opt)
    : opt_(opt),
      num_cores_(std::max(num_cores, 1)),
      vc_(static_cast<std::size_t>(num_cores_),
          std::vector<Clock>(static_cast<std::size_t>(num_cores_), 0)),
      cur_task_(static_cast<std::size_t>(num_cores_), 0) {}

void Checker::report(Severity sev, Invariant inv,
                     const telemetry::TraceEvent& e, TaskId task,
                     TaskId other, std::string detail) {
  add({sev, inv, e.time, e.core, e.addr, e.version, task, other,
       std::move(detail)});
}

void Checker::add(Finding f) {
  ++total_;
  if (f.severity == Severity::kError || opt_.strict) {
    ++errors_;
  } else {
    ++warnings_;
  }
  if (findings_.size() < opt_.max_findings) findings_.push_back(std::move(f));
}

void Checker::join(CoreId core, const std::vector<Clock>& other) {
  std::vector<Clock>& mine = vc_[static_cast<std::size_t>(core)];
  const std::size_t n = std::min(mine.size(), other.size());
  for (std::size_t i = 0; i < n; ++i) mine[i] = std::max(mine[i], other[i]);
}

Checker::BState Checker::bstate(std::uint64_t block) const {
  return block < bstate_.size() ? bstate_[block] : BState::kFree;
}

void Checker::set_bstate(std::uint64_t block, BState s) {
  if (block >= bstate_.size()) bstate_.resize(block + 1, BState::kFree);
  bstate_[block] = s;
}

bool Checker::lock_edge_closes_cycle(Addr a, Addr b) const {
  // Would edge a->b close a cycle, i.e. is a reachable from b already?
  std::vector<Addr> stack{b};
  std::set<Addr> seen;
  while (!stack.empty()) {
    const Addr n = stack.back();
    stack.pop_back();
    if (n == a) return true;
    if (!seen.insert(n).second) continue;
    auto it = lock_edges_.find(n);
    if (it == lock_edges_.end()) continue;
    for (Addr next : it->second) stack.push_back(next);
  }
  return false;
}

void Checker::on_event(const telemetry::TraceEvent& e) {
  switch (e.type) {
    case telemetry::EventType::kIsaOp:
      on_isa_op(e);
      break;
    case telemetry::EventType::kVersionRead:
      on_version_read(e);
      break;
    case telemetry::EventType::kVersionStore:
      on_version_store(e);
      break;
    case telemetry::EventType::kLockAcquire:
      on_lock_acquire(e);
      break;
    case telemetry::EventType::kLockRelease:
      // In a live run an illegal unlock faults before kLockRelease is
      // emitted and the kIsaOp handler has already flagged it; flagging
      // here as well covers synthetic/offline streams without ISA events.
      on_lock_release(e, /*flag_unheld=*/true);
      break;
    case telemetry::EventType::kBlockAlloc:
    case telemetry::EventType::kBlockShadowed:
    case telemetry::EventType::kBlockRestored:
    case telemetry::EventType::kBlockPending:
    case telemetry::EventType::kBlockFreed:
      on_block_event(e);
      break;
    case telemetry::EventType::kTaskCreated:
      live_tasks_[e.version]++;
      break;
    case telemetry::EventType::kTaskAborted:
      on_task_aborted(e);
      break;
    default:
      break;  // GC phase boundaries, OS traps: nothing to validate
  }
}

void Checker::on_isa_op(const telemetry::TraceEvent& e) {
  const auto ci = static_cast<std::size_t>(e.core);
  switch (e.op) {
    case OpCode::kTaskBegin: {
      const TaskId t = e.version;
      cur_task_[ci] = t;
      if (live_tasks_.find(t) == live_tasks_.end()) live_tasks_[t] = 1;
      break;
    }
    case OpCode::kTaskEnd: {
      const TaskId t = e.version;
      for (const auto& [key, owner] : lock_owner_) {
        if (owner == t) {
          report(Severity::kError, Invariant::kLockHeldAtTaskEnd, e, t, 0,
                 "TASK-END with version " + std::to_string(key.second) +
                     " of addr " + std::to_string(key.first) +
                     " still locked");
        }
      }
      auto it = live_tasks_.find(t);
      if (it != live_tasks_.end() && --it->second == 0) live_tasks_.erase(it);
      cur_task_[ci] = 0;
      break;
    }
    case OpCode::kUnlockVersion: {
      // The ISA event fires before the manager validates, so this is where
      // illegal unlocks (which fault without a kLockRelease) get flagged.
      const VerKey key{e.addr, e.version};
      if (lock_owner_.find(key) == lock_owner_.end()) {
        const bool again = ever_released_.count(key) > 0;
        report(Severity::kError,
               again ? Invariant::kDoubleUnlock
                     : Invariant::kUnlockWithoutLock,
               e, cur_task(e.core), 0,
               again ? "UNLOCK-VERSION of a version already unlocked"
                     : "UNLOCK-VERSION of a version that was never locked");
      }
      break;
    }
    default:
      break;  // loads/stores are validated on their lifecycle events
  }
}

void Checker::on_task_aborted(const telemetry::TraceEvent& e) {
  // Post-abort invariant: the engine released every lock the task held
  // (as kLockRelease events preceding this one) and freed its created
  // versions (kBlockFreed). A lock still owned here leaked the rollback.
  const TaskId t = e.version;
  for (const auto& [key, owner] : lock_owner_) {
    if (owner == t) {
      report(Severity::kError, Invariant::kLockHeldAtTaskEnd, e, t, 0,
             "TASK-ABORTED with version " + std::to_string(key.second) +
                 " of addr " + std::to_string(key.first) +
                 " still locked (rollback leaked a lock)");
    }
  }
  // The task is no longer running anywhere, but stays live for the GC
  // invariants until the runtime retries (TASK-BEGIN) or retires
  // (TASK-END) it — mirroring the engine's unfinished-task tracking.
  for (TaskId& ct : cur_task_) {
    if (ct == t) ct = 0;
  }
}

void Checker::on_version_read(const telemetry::TraceEvent& e) {
  tick(e.core);
  const VerKey key{e.addr, e.version};
  if (reclaimed_.count(key) > 0) {
    report(Severity::kError, Invariant::kUseAfterReclaim, e,
           cur_task(e.core), 0,
           "read of version " + std::to_string(e.version) +
               " after it was reclaimed");
  }
  auto it = store_vc_.find(key);
  if (it != store_vc_.end()) join(e.core, it->second);  // dataflow edge
  // LOAD-LATEST resolved below its cap: remember the open window
  // (got, cap] so a later store into it can be flagged as a race.
  const bool latest =
      e.op == OpCode::kLoadLatest || e.op == OpCode::kLockLoadLatest;
  if (latest && e.version < e.arg) {
    auto& wins = windows_[e.addr];
    const auto ci = static_cast<std::size_t>(e.core);
    wins.push_back({e.version, e.arg, e.core, vc_[ci][ci], cur_task(e.core),
                    e.time});
    while (wins.size() > opt_.read_window) wins.pop_front();
  }
}

void Checker::on_version_store(const telemetry::TraceEvent& e) {
  tick(e.core);
  const TaskId writer = cur_task(e.core);
  const auto ci = static_cast<std::size_t>(e.core);

  // Determinacy-race detection: this store lands inside a previously
  // recorded LOAD-LATEST window iff a reader asked for "latest <= cap" and
  // got an older version than the one being created now. Unless the reader
  // happens-before this store, the read's outcome depended on timing.
  auto wit = windows_.find(e.addr);
  if (wit != windows_.end()) {
    for (const Window& w : wit->second) {
      if (!(w.got < e.version && e.version <= w.cap)) continue;
      if (writer != 0 && writer == w.task) continue;  // same task
      if (vc_[ci][static_cast<std::size_t>(w.core)] >= w.clock) continue;
      report(Severity::kError, Invariant::kDeterminacyRace, e, writer,
             w.task,
             "STORE-VERSION " + std::to_string(e.version) +
                 " races LOAD-LATEST(cap=" + std::to_string(w.cap) +
                 ") that returned " + std::to_string(w.got) + " at cycle " +
                 std::to_string(w.time) + " with no ordering edge");
    }
  }

  const VerKey key{e.addr, e.version};
  store_vc_[key] = vc_[ci];
  reclaimed_.erase(key);

  // Lifecycle: the store installs a version on block e.arg.
  const std::uint64_t block = e.arg;
  switch (bstate(block)) {
    case BState::kAlloc:
      break;  // the legal path
    case BState::kFree:
      report(Severity::kError, Invariant::kUseAfterReclaim, e, writer, 0,
             "version stored on block " + std::to_string(block) +
                 " which is on the free list");
      break;
    case BState::kStored:
      report(Severity::kError, Invariant::kFreeListCorruption, e, writer, 0,
             "block " + std::to_string(block) +
                 " stored twice without being freed");
      break;
    case BState::kShadowed:
    case BState::kPending:
      report(Severity::kError, Invariant::kStoreAfterShadow, e, writer, 0,
             "store to block " + std::to_string(block) +
                 " after it was shadowed");
      break;
  }
  set_bstate(block, BState::kStored);
}

void Checker::on_lock_acquire(const telemetry::TraceEvent& e) {
  tick(e.core);
  const TaskId locker = e.arg != 0 ? e.arg : cur_task(e.core);
  const VerKey key{e.addr, e.version};
  auto it = lock_owner_.find(key);
  if (it != lock_owner_.end()) {
    report(Severity::kError, Invariant::kDoubleAcquire, e, locker,
           it->second,
           "lock acquired while already held by task " +
               std::to_string(it->second));
  }
  // Lock-order edges: acquiring B while holding A establishes A < B; a
  // cycle in that relation means two tasks can deadlock.
  for (const auto& [held, owner] : lock_owner_) {
    if (owner != locker || held.first == e.addr) continue;
    if (lock_edges_[held.first].insert(e.addr).second) {
      if (lock_edge_closes_cycle(held.first, e.addr)) {
        report(Severity::kWarning, Invariant::kLockOrderCycle, e, locker, 0,
               "lock order cycle: addr " + std::to_string(e.addr) +
                   " acquired while holding addr " +
                   std::to_string(held.first) +
                   ", which is also acquired after it");
      }
    }
  }
  lock_owner_[key] = locker;
  auto rit = release_vc_.find(key);
  if (rit != release_vc_.end()) join(e.core, rit->second);  // lock edge
}

void Checker::on_lock_release(const telemetry::TraceEvent& e,
                              bool flag_unheld) {
  tick(e.core);
  const VerKey key{e.addr, e.version};
  auto it = lock_owner_.find(key);
  if (it == lock_owner_.end()) {
    if (flag_unheld) {
      const bool again = ever_released_.count(key) > 0;
      report(Severity::kError,
             again ? Invariant::kDoubleUnlock : Invariant::kUnlockWithoutLock,
             e, e.arg, 0,
             again ? "release of a version already unlocked"
                   : "release of a version that was never locked");
    }
  } else {
    lock_owner_.erase(it);
  }
  release_vc_[key] = vc_[static_cast<std::size_t>(e.core)];
  ever_released_.insert(key);
}

void Checker::on_block_event(const telemetry::TraceEvent& e) {
  tick(e.core);
  const std::uint64_t block = e.arg;
  switch (e.type) {
    case telemetry::EventType::kBlockAlloc:
      if (bstate(block) != BState::kFree) {
        report(Severity::kError, Invariant::kFreeListCorruption, e,
               cur_task(e.core), 0,
               "block " + std::to_string(block) +
                   " allocated while not on the free list");
      }
      set_bstate(block, BState::kAlloc);
      break;
    case telemetry::EventType::kBlockShadowed:
      if (bstate(block) != BState::kStored) {
        report(Severity::kWarning, Invariant::kFreeListCorruption, e,
               cur_task(e.core), 0,
               "block " + std::to_string(block) +
                   " shadowed while not carrying a live version");
      }
      set_bstate(block, BState::kShadowed);
      shadower_[block] = e.version;  // the shadowing version fences readers
      break;
    case telemetry::EventType::kBlockRestored:
      // Abort rollback un-shadowed the block: the version it carries is
      // the slot's effective head again, so a later store may legally
      // re-shadow it.
      if (bstate(block) != BState::kShadowed &&
          bstate(block) != BState::kPending) {
        report(Severity::kWarning, Invariant::kFreeListCorruption, e,
               cur_task(e.core), 0,
               "block " + std::to_string(block) +
                   " restored while not shadowed");
      }
      set_bstate(block, BState::kStored);
      shadower_.erase(block);
      break;
    case telemetry::EventType::kBlockPending:
      if (bstate(block) != BState::kShadowed) {
        report(Severity::kWarning, Invariant::kFreeListCorruption, e,
               cur_task(e.core), 0,
               "block " + std::to_string(block) +
                   " entered a GC phase without being shadowed");
      }
      set_bstate(block, BState::kPending);
      break;
    case telemetry::EventType::kBlockFreed: {
      const BState s = bstate(block);
      if (s == BState::kFree) {
        report(Severity::kError, Invariant::kDoubleFree, e, cur_task(e.core),
               0, "block " + std::to_string(block) + " freed twice");
      } else if (s == BState::kPending) {
        // GC safety: a pending block holding version v and shadowed by s
        // may only be reclaimed once no unfinished task id lies in the
        // half-open range [v, s). Task ids double as LOAD-LATEST caps, so
        // only a task in that range can still name the shadowed version: an
        // older task's cap resolves below v, a younger task's at or above
        // s. (This range rule admits both shipped GC policies — the paper's
        // fence reclamation satisfies it a fortiori, since it waits for
        // *every* task older than the shadower.)
        auto sh = shadower_.find(block);
        if (sh != shadower_.end()) {
          const auto it = live_tasks_.lower_bound(e.version);
          if (it != live_tasks_.end() && it->first < sh->second) {
            report(Severity::kError, Invariant::kPrematureReclaim, e,
                   it->first, sh->second,
                   "block " + std::to_string(block) + " (version " +
                       std::to_string(e.version) +
                       ") reclaimed while task " + std::to_string(it->first) +
                       " (a possible reader in [" +
                       std::to_string(e.version) + ", " +
                       std::to_string(sh->second) + ")) is unfinished");
          }
        }
      }
      set_bstate(block, BState::kFree);
      shadower_.erase(block);
      if (e.addr != 0) {
        const VerKey key{e.addr, e.version};
        reclaimed_.insert(key);
        store_vc_.erase(key);
        release_vc_.erase(key);
        lock_owner_.erase(key);
      }
      break;
    }
    default:
      break;
  }
}

void Checker::finish() {
  if (finished_) return;
  finished_ = true;
  telemetry::TraceEvent end;  // zero time/core: end-of-run context
  for (const auto& [key, owner] : lock_owner_) {
    end.addr = key.first;
    end.version = key.second;
    report(Severity::kError, Invariant::kLockHeldAtTaskEnd, end, owner, 0,
           "version still locked at end of run");
  }
  for (const auto& [t, n] : live_tasks_) {
    (void)n;
    end.addr = 0;
    end.version = t;
    report(Severity::kWarning, Invariant::kTaskPairing, end, t, 0,
           "task created/begun but never ended");
  }
}

}  // namespace osim::analysis
