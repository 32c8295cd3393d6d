// The shared rollback journal of abort_task() — one record type, one
// replay discipline, for both semantic engines.
//
// THE ROLLBACK-ORDER INVARIANT (documented once, here). A task's journal
// is replayed NEWEST-FIRST (reverse journal order), and every entry is
// revalidated against the live structure before it is undone:
//
//   * Newest-first is load-bearing, not cosmetic. A rename journals the
//     lock acquisition *before* the version the unlock materialized; only
//     reverse order unlinks the renamed version before releasing (or
//     observing) the lock it grew out of. Likewise a task that stored
//     v then shadowed it with v' must drop v' before restoring v's
//     block to the live list, or the restore would resurrect a block the
//     later entry is about to free.
//   * Revalidation is what makes replay safe long after the fact. The
//     serial engine names blocks by pool index, and the pool recycles
//     indices: each entry therefore carries the block's GENERATION at
//     journal time, and an entry whose block no longer matches
//     (generation, slot, version) is skipped — the GC already reclaimed
//     it and the index now belongs to someone else. The concurrent engine
//     sidesteps recycled indices by naming the undone object (slot,
//     version) — unique for the block's whole linked lifetime — and
//     leaves the generation fields defaulted; its revalidation is the
//     chain walk under the shard lock.
//
// THE COMMITTED-SHADOWER RULE. A journaled store above the slot's older
// head does not register that head with the collector: its kStore entry
// records it, task_end registers it if it is still the same linked block,
// and an abort drops it — else a pass could reclaim the block the abort
// makes the live version again (DESIGN.md, GcPolicy seam).
//
// Both engines journal through the same guard (undo_active) and replay
// through the same newest-first driver (replay_abort), which tallies what
// the abort undid for the engine's osm/tasks_aborted, osm/aborted_blocks
// and osm/aborted_locks counters; only the per-entry undo actions — plain
// list surgery vs. seqlock-windowed unlink — stay engine-specific, passed
// in as callbacks.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "core/version_block.hpp"

namespace osim {

/// One rollback-journal record: a version the task created (kStore) or a
/// lock it acquired (kLock). The serial engine fills the block-identity
/// fields (index + generations, see the invariant above); the concurrent
/// engine keys by (slot, version) alone and leaves them defaulted.
struct UndoEntry {
  enum class Kind : std::uint8_t { kStore, kLock };
  Kind kind;
  std::uint64_t slot;
  Ver version;
  BlockIndex block = kNullBlock;     ///< created block (serial kStore)
  std::uint32_t generation = 0;      ///< its generation at journal time
  /// The older head a kStore shadowed, registered at task_end (kNullBlock
  /// for a mid-list insert, an empty slot or a kLock).
  BlockIndex shadowed = kNullBlock;
  std::uint32_t shadowed_gen = 0;  ///< its generation (serial)
  Ver shadowed_version = 0;        ///< its version (concurrent)
};

/// Journaling guard shared by both engines: a record is appended only when
/// the engine tracks aborts and a task is bound to the executing context.
inline bool undo_active(bool track_aborts, TaskId cur_task) {
  return track_aborts && cur_task != kNoTask;
}

/// What one abort undid: created versions unlinked and locks released.
struct AbortTally {
  std::uint64_t blocks = 0;
  std::uint64_t locks = 0;
};

/// One abort: replay `journal` newest-first through the engine's undo
/// actions. Each callback revalidates its entry (see the invariant above)
/// and returns whether it actually undid anything.
template <typename UndoStoreFn, typename UndoLockFn>
AbortTally replay_abort(const std::vector<UndoEntry>& journal,
                        UndoStoreFn&& undo_store, UndoLockFn&& undo_lock) {
  AbortTally undone;
  for (auto it = journal.rbegin(); it != journal.rend(); ++it) {
    if (it->kind == UndoEntry::Kind::kStore) {
      if (undo_store(*it)) ++undone.blocks;
    } else if (undo_lock(*it)) {
      ++undone.locks;
    }
  }
  return undone;
}

}  // namespace osim
