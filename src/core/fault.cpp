#include "core/fault.hpp"

#include "core/address_map.hpp"

namespace osim {

void fault_zero_slot_alloc() {
  throw OFault(FaultKind::kInvalidAddress, "zero-slot alloc");
}

void fault_injected_slot_alloc(std::size_t slots) {
  throw OFault(FaultKind::kResourceExhausted,
               "slot-table allocation of " + std::to_string(slots) +
                   " slots refused (injected)");
}

void fault_unversioned(Addr a) {
  const std::uint64_t slot = ostruct_slot(a);
  if (slot == kNoSlot) {
    throw OFault(FaultKind::kVersionedAccessToUnversionedPage,
                 "address " + std::to_string(a) +
                     " is outside the versioned region");
  }
  throw OFault(FaultKind::kVersionedAccessToUnversionedPage,
               "slot " + std::to_string(slot) + " is not allocated");
}

void fault_conventional(Addr a) {
  throw OFault(FaultKind::kConventionalAccessToVersionedPage,
               "slot " + std::to_string(ostruct_slot(a)));
}

void fault_injected_deadlock(OpCode op, Ver v, Addr a, TaskId task) {
  throw OFault(FaultKind::kWouldBlock,
               std::string("injected deadlock timeout: ") + to_string(op) +
                   " of version " + std::to_string(v) + " at address " +
                   std::to_string(a) + " by task " + std::to_string(task));
}

void fault_unlock_missing(Ver v) {
  throw OFault(FaultKind::kNotLockOwner,
               "unlock of nonexistent version " + std::to_string(v));
}

void fault_unlock_foreign(Ver v, TaskId holder, TaskId owner) {
  throw OFault(FaultKind::kNotLockOwner,
               "version " + std::to_string(v) + " locked by " +
                   std::to_string(holder) + ", unlock by " +
                   std::to_string(owner));
}

void fault_rename_exists(Ver v) {
  throw OFault(FaultKind::kRenameTargetExists, std::to_string(v));
}

void fault_duplicate_version(Ver v) {
  throw OFault(FaultKind::kVersionAlreadyExists,
               "version " + std::to_string(v));
}

void fault_block_pool_exhausted(const std::string& pool, std::size_t capacity,
                                const std::string& detail) {
  throw OFault(FaultKind::kResourceExhausted,
               pool + " block pool exhausted at its " +
                   std::to_string(capacity) + "-block capacity: " + detail);
}

}  // namespace osim
