// Simulated protection and usage faults of the O-structure architecture
// (paper Sec. III, "Addressing and protection").
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

#include "core/isa.hpp"
#include "core/types.hpp"

namespace osim {

enum class FaultKind {
  /// A conventional LOAD/STORE touched a page whose versioned bit is set.
  kConventionalAccessToVersionedPage,
  /// A versioned instruction referenced a page whose versioned bit is clear.
  kVersionedAccessToUnversionedPage,
  /// An access reached a version block whose head bit is not set (user code
  /// attempting to enter a version block list other than through its head).
  kNotListHead,
  /// STORE-VERSION to a version that already exists ("once created, a
  /// version can be locked but not modified").
  kVersionAlreadyExists,
  /// UNLOCK-VERSION by a task that does not hold the lock, or of an
  /// unlocked version.
  kNotLockOwner,
  /// UNLOCK-VERSION asked to rename onto a version that already exists.
  kRenameTargetExists,
  /// Address is not an O-structure slot this manager ever allocated.
  kInvalidAddress,
  /// Task runtime violated GC rule #3 (spawned a task older than the oldest
  /// active task) or ended a task that never began.
  kTaskOrderViolation,
  /// A versioned op would block, on a backend that cannot block (the
  /// functional backend executes in creation order, where a blocking op
  /// means the schedule itself can never make progress).
  kWouldBlock,
  /// The engine ran out of a bounded resource (version-block pool, slot
  /// table) or the OS refused to grow it. Structured so runtimes can
  /// back off and retry instead of dying: the store is left consistent,
  /// the requesting op simply did not happen.
  kResourceExhausted,
};

/// String name of a fault kind (stable; used in fault messages and tests).
const char* to_string(FaultKind k);

/// Thrown by the O-structure manager; the machine converts it into a
/// SimError that aborts the run (a real system would deliver a signal).
class OFault : public std::runtime_error {
 public:
  OFault(FaultKind kind, const std::string& detail)
      : std::runtime_error(std::string("O-structure fault: ") +
                           to_string(kind) + (detail.empty() ? "" : ": ") +
                           detail),
        kind_(kind) {}

  FaultKind kind() const { return kind_; }

 private:
  FaultKind kind_;
};

inline const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kConventionalAccessToVersionedPage:
      return "conventional access to versioned page";
    case FaultKind::kVersionedAccessToUnversionedPage:
      return "versioned access to unversioned page";
    case FaultKind::kNotListHead:
      return "access to non-head version block";
    case FaultKind::kVersionAlreadyExists:
      return "version already exists";
    case FaultKind::kNotLockOwner:
      return "unlock by non-owner";
    case FaultKind::kRenameTargetExists:
      return "rename target version already exists";
    case FaultKind::kInvalidAddress:
      return "invalid O-structure address";
    case FaultKind::kTaskOrderViolation:
      return "task ordering rule violation";
    case FaultKind::kWouldBlock:
      return "versioned op would block in-order execution";
    case FaultKind::kResourceExhausted:
      return "resource exhausted";
  }
  return "unknown fault";
}

// ---- The ISA's misuse faults ----
// Both semantic engines decide these cases identically, so each is worded
// once here (out of line: the throw sites sit on hot paths).
[[noreturn]] void fault_zero_slot_alloc();
[[noreturn]] void fault_injected_slot_alloc(std::size_t slots);
[[noreturn]] void fault_unversioned(Addr a);
[[noreturn]] void fault_conventional(Addr a);
[[noreturn]] void fault_injected_deadlock(OpCode op, Ver v, Addr a,
                                          TaskId task);
[[noreturn]] void fault_unlock_missing(Ver v);
[[noreturn]] void fault_unlock_foreign(Ver v, TaskId holder, TaskId owner);
[[noreturn]] void fault_rename_exists(Ver v);
[[noreturn]] void fault_duplicate_version(Ver v);
/// A version-block pool is at its capacity with nothing reclaimable: the
/// serial pool's 30-bit pointer cap or a concurrent shard's chunk table.
/// `pool` names the pool, `detail` the request that did not fit.
[[noreturn]] void fault_block_pool_exhausted(const std::string& pool,
                                             std::size_t capacity,
                                             const std::string& detail);

}  // namespace osim
