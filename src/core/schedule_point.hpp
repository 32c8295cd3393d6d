// SchedulePoint: the concurrent engine's scheduling seam.
//
// ConcurrentVersionStore announces every scheduling-relevant transition —
// shard, task-stripe and task-creation mutex acquire/release, optimistic
// seqlock read begin/retry,
// park/unpark of a blocked op, reclamation epoch advances, GC floor raises
// — through this interface, exactly the way VersionStore announces timing
// effects through TimingModel and reclamation decisions through GcPolicy.
// A model checker (analysis/explore.hpp) installs a hook that turns those
// announcements into a *controlled cooperative schedule*: only one program
// thread runs at a time, every interleaving decision is explicit, recorded,
// and replayable.
//
// Production cost is the TimingFastPath trick in its simplest form: the
// engine keeps a raw `ScheduleHook*` that is null outside model checking,
// and every announcement site is `if (hook_ != nullptr) hook_->...`. With
// no hook attached the seam is one never-taken branch on an
// already-loaded field — no virtual dispatch, no std::function, nothing
// for the optimizer to keep alive.
//
// Contract for hook implementations:
//   * Calls arrive from the store's registered program threads *and* from
//     host-side driver threads (alloc/release/inspection). A hook must
//     pass through calls from threads it does not manage.
//   * mutex_acquire() is called INSTEAD of contending on a real engine
//     mutex: the hook returns only when the modeled mutex is free and the
//     calling thread has been granted it; the engine then takes the real
//     (now uncontended) mutex. mutex_release() is called after the real
//     unlock. Three mutex families are modeled — the shard writer mutexes,
//     the task stripes and the task-creation mutex — identified by the
//     acquire kind plus `obj`. A critical section may acquire a further
//     modeled mutex (lock order shard -> creation -> stripe), so a hook
//     must not grant a mutex another thread holds.
//   * block() replaces the engine's spin-then-park wait entirely. A true
//     return means "rescheduled after a wake; re-examine the slot". A
//     false return means the scheduler proved no other thread can make
//     progress — the engine converts it into its deterministic deadlock
//     fault (kWouldBlock).
//   * wake() is called where the engine would notify the shard's parked
//     waiters, *before* the production fast-path that elides the notify
//     when no waiter is registered (modeled waiters never register).
#pragma once

#include <cstdint>

namespace osim {

enum class SchedKind : std::uint8_t {
  kThreadStart,   ///< a managed thread's first scheduling (obj = thread id)
  kShardAcquire,  ///< about to take a shard writer mutex (obj = shard index)
  kShardRelease,  ///< shard writer mutex released (obj = shard index)
  kSeqReadBegin,  ///< optimistic seqlock read starting (obj = shard index)
  kSeqReadRetry,  ///< optimistic read re-ran (obj = shard index)
  kBlocked,       ///< op cannot progress until the shard changes (obj = shard)
  kWake,          ///< store/unlock/release signalled the shard (obj = shard)
  kEpochAdvance,  ///< reclamation grace epoch advanced (obj = 0)
  kGcFloorRaise,  ///< reclaim raised the GC floor (obj = 0)
  kTaskOp,        ///< abort_task (obj = 0)
  kStripeAcquire,  ///< about to take a task-stripe mutex (obj = stripe)
  kStripeRelease,  ///< task-stripe mutex released (obj = stripe)
  kCreateAcquire,  ///< about to take the task-creation mutex (obj = 0)
  kCreateRelease,  ///< task-creation mutex released (obj = 0)
};

inline const char* to_string(SchedKind k) {
  switch (k) {
    case SchedKind::kThreadStart: return "thread-start";
    case SchedKind::kShardAcquire: return "shard-acquire";
    case SchedKind::kShardRelease: return "shard-release";
    case SchedKind::kSeqReadBegin: return "seq-read-begin";
    case SchedKind::kSeqReadRetry: return "seq-read-retry";
    case SchedKind::kBlocked: return "blocked";
    case SchedKind::kWake: return "wake";
    case SchedKind::kEpochAdvance: return "epoch-advance";
    case SchedKind::kGcFloorRaise: return "gc-floor-raise";
    case SchedKind::kTaskOp: return "task-op";
    case SchedKind::kStripeAcquire: return "stripe-acquire";
    case SchedKind::kStripeRelease: return "stripe-release";
    case SchedKind::kCreateAcquire: return "create-acquire";
    case SchedKind::kCreateRelease: return "create-release";
  }
  return "?";
}

/// One announced transition: what kind, on which object (shard index for
/// shard-scoped kinds, stripe index for stripe kinds, 0 for global ones).
struct SchedPoint {
  SchedKind kind;
  std::uint64_t obj;
};

class ScheduleHook {
 public:
  virtual ~ScheduleHook() = default;

  /// Announcement that may suspend the calling thread and run others
  /// before returning (the hook decides which kinds are decision points
  /// and which are bookkeeping).
  virtual void point(SchedPoint p) = 0;

  /// Modeled-mutex acquisition; returns with the modeled mutex granted.
  virtual void mutex_acquire(SchedPoint p) = 0;
  /// Modeled-mutex release (called after the real unlock).
  virtual void mutex_release(SchedPoint p) = 0;

  /// The calling thread cannot progress until p.obj is signalled. Returns
  /// true when rescheduled after a wake(), false when the scheduler
  /// declared this thread a deadlock victim (caller faults kWouldBlock).
  virtual bool block(SchedPoint p) = 0;
  /// Make every thread blocked on p.obj schedulable again.
  virtual void wake(SchedPoint p) = 0;
};

}  // namespace osim
