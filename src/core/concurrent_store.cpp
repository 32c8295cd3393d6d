#include "core/concurrent_store.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/fault.hpp"

namespace osim {

namespace {

/// Thread-local registration: one ctx id per (thread, store) pair. Stores
/// are distinguished by a process-unique serial, never by address (a new
/// store may reuse a destroyed one's address).
struct TlsBinding {
  std::uint64_t serial;
  int id;
};
thread_local std::vector<TlsBinding> t_bindings;
std::atomic<std::uint64_t> g_store_serial{1};

[[noreturn]] void fault_too_many_threads(int max_threads) {
  throw std::runtime_error(
      "ConcurrentVersionStore: thread registrations exceed "
      "ConcurrencyConfig::max_threads (" +
      std::to_string(max_threads) + ")");
}

/// A parked op unwound by request_stop(), under the hook or in a real park.
[[noreturn]] void fault_stopped(OpCode op, Ver v, TaskId task) {
  throw OFault(FaultKind::kWouldBlock,
               "run aborted while " + std::string(to_string(op)) +
                   " of version " + std::to_string(v) + " by task " +
                   std::to_string(task) + " was parked");
}

}  // namespace

const ConcurrentVersionStore::CounterName
    ConcurrentVersionStore::kStatsNames[9] = {
        {"versioned_ops", &Counters::ops}, {"loads", &Counters::loads},
        {"stores", &Counters::stores}, {"lock_ops", &Counters::lock_ops},
        {"seq_retries", &Counters::seq_retries},
        {"spin_waits", &Counters::spin_waits}, {"parks", &Counters::parks},
        {"blocks_allocated", &Counters::blocks_allocated},
        {"blocks_reclaimed", &Counters::blocks_reclaimed}};
const ConcurrentVersionStore::CounterName
    ConcurrentVersionStore::kAbortNames[3] = {
        {"tasks_aborted", &Counters::tasks_aborted},
        {"aborted_blocks", &Counters::aborted_blocks},
        {"aborted_locks", &Counters::aborted_locks}};

ConcurrentVersionStore::ConcurrentVersionStore(const ConcurrencyConfig& cfg)
    : cfg_(cfg),
      metrics_(std::max(1, cfg.max_threads)),
      serial_(g_store_serial.fetch_add(1)) {
  static_assert(offsetof(Shard, chunk) % 64 == 0 &&
                    offsetof(Shard, chunk) >= sizeof(Mutex),
                "Shard::chunk must not share writer_mu's cache line");
  int n = 1;
  while (n < cfg_.shards) n <<= 1;
  nshards_ = n;
  shard_mask_ = static_cast<std::uint64_t>(n - 1);
  shards_ = std::make_unique<Shard[]>(static_cast<std::size_t>(n));
  cfg_.max_threads = metrics_.num_cores();
  ctxs_ = std::make_unique<ThreadCtx[]>(
      static_cast<std::size_t>(cfg_.max_threads));
  // Registered like the serial engine's PerCoreCounters: the hot path
  // bumps ctx fields, the registry reads them one ThreadCtx apart.
  const Counters* base = &ctxs_[0].local;
  metrics_.counter_fields_external(telemetry::Component::kOsm, base,
                                   kStatsNames, sizeof(ThreadCtx));
  if (cfg_.track_aborts) {
    metrics_.counter_fields_external(telemetry::Component::kOsm, base,
                                     kAbortNames, sizeof(ThreadCtx));
  }
  inj_.build_from_spec(cfg_.inject_spec);
}

ConcurrentVersionStore::~ConcurrentVersionStore() {
  for (int i = 0; i < nshards_; ++i) {
    Shard& sh = shards_[i];
    const std::uint32_t nc = sh.nchunks.load(std::memory_order_relaxed);
    for (std::uint32_t c = 0; c < nc; ++c) {
      delete[] sh.chunk[c].load(std::memory_order_relaxed);
    }
  }
  const std::uint64_t slots = slot_count_.load(std::memory_order_relaxed);
  const std::uint64_t nchunks =
      (slots + kSlotChunkSize - 1) >> kSlotChunkBits;
  for (std::uint64_t c = 0; c < nchunks; ++c) {
    delete[] slot_chunk_[c].load(std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Thread registration and epochs

int ConcurrentVersionStore::ctx_id() {
  for (const TlsBinding& b : t_bindings) {
    if (b.serial == serial_) return b.id;
  }
#if defined(OSIM_MC_SEEDED_BUG) && OSIM_MC_SEEDED_BUG == 2
  // Seeded PR-6 review bug (model-checking regression fixture, see
  // tests/test_explore_seeded.cpp): the original registration checked the
  // bound only after fetch_add, so a rejected thread still left nctx_
  // above max_threads and min_active_epoch()/stats() iterated past the
  // end of ctxs_. osim-mc flags it as a registered_threads() bound
  // violation on every schedule of the ctx_bound litmus.
  const int id = nctx_.fetch_add(1, std::memory_order_acq_rel);
  if (id >= cfg_.max_threads) fault_too_many_threads(cfg_.max_threads);
#else
  // Bounded CAS: nctx_ must never exceed max_threads even transiently —
  // min_active_epoch() iterates ctxs_[0..nctx_), so an over-incremented
  // count would send it past the end of the array.
  int id = nctx_.load(std::memory_order_relaxed);
  for (;;) {
    if (id >= cfg_.max_threads) fault_too_many_threads(cfg_.max_threads);
    if (nctx_.compare_exchange_weak(id, id + 1, std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
      break;
    }
  }
#endif
  t_bindings.push_back({serial_, id});
  return id;
}

// ---------------------------------------------------------------------------
// Schedule-hook plumbing

ConcurrentVersionStore::HookedLock::HookedLock(ConcurrentVersionStore& s,
                                               Mutex& mu, SchedPoint acquire,
                                               SchedKind release)
    : hook_(s.hook_), mu_(mu), release_{release, acquire.obj} {
  // Modeled acquisition first: the hook returns only once this thread has
  // been granted the (modeled) mutex, so the real lock below never
  // contends under a hook. Hookless: one null-check.
  if (hook_ != nullptr) hook_->mutex_acquire(acquire);
  mu_.lock();
}

ConcurrentVersionStore::HookedLock::HookedLock(ConcurrentVersionStore& s,
                                               Shard& sh)
    : HookedLock(s, sh.writer_mu, {SchedKind::kShardAcquire, s.shard_index(sh)},
                 SchedKind::kShardRelease) {}

ConcurrentVersionStore::HookedLock::HookedLock(ConcurrentVersionStore& s,
                                               TaskStripe& ts)
    : HookedLock(s, ts.mu, {SchedKind::kStripeAcquire, s.stripe_index(ts)},
                 SchedKind::kStripeRelease) {}

ConcurrentVersionStore::HookedLock::HookedLock(ConcurrentVersionStore& s,
                                               TaskCreation& tc)
    : HookedLock(s, tc.mu, {SchedKind::kCreateAcquire, 0},
                 SchedKind::kCreateRelease) {}

ConcurrentVersionStore::HookedLock::~HookedLock() {
  mu_.unlock();
  if (hook_ != nullptr) hook_->mutex_release(release_);
}

ConcurrentVersionStore::ThreadCtx& ConcurrentVersionStore::ctx() {
  return ctxs_[static_cast<std::size_t>(ctx_id())];
}

/// RAII epoch pin for an optimistic walk. The store-then-confirm loop makes
/// the pin "sticky": once the loop exits, any reclaimer that later advances
/// the global epoch is guaranteed to observe this pin (both sides use
/// seq_cst, so pin-store and epoch-read cannot pass each other) and will
/// not recycle a block retired at an epoch <= the pinned one. Parked
/// waiters drop their pin first — a blocked reader must not block
/// reclamation.
struct ConcurrentVersionStore::EpochPin {
  ThreadCtx& c;
  EpochPin(const ConcurrentVersionStore& s, ThreadCtx& tc) : c(tc) {
    std::uint64_t e;
    do {
      e = s.global_epoch_.now.load(std::memory_order_seq_cst);
      c.epoch.store(e, std::memory_order_seq_cst);
    } while (s.global_epoch_.now.load(std::memory_order_seq_cst) != e);
  }
  ~EpochPin() { c.epoch.store(kIdleEpoch, std::memory_order_release); }
};

std::uint64_t ConcurrentVersionStore::min_active_epoch() const {
  std::uint64_t m = kIdleEpoch;
  const int n = nctx_.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    m = std::min(m, ctxs_[i].epoch.load(std::memory_order_seq_cst));
  }
  return m;
}

void ConcurrentVersionStore::advance_epoch() {
  global_epoch_.now.fetch_add(1, std::memory_order_seq_cst);
  sched_point(SchedKind::kEpochAdvance, 0);
}

// ---------------------------------------------------------------------------
// Chain primitives

/// Seqlock write window, following snippet 1's discipline (SNIPPETS.md,
/// cyfdecyf/mem-order/mem-record-seqlock.c). The snippet's point about
/// barrier placement: the release fence must sit *between* the odd sequence
/// store and the data writes ("the barrier should be added right after the
/// actual write"), so that any reader that observes a data write also
/// observes the odd sequence when it re-checks — without the fence a
/// link-in could become visible before the odd sequence and a reader would
/// validate a torn walk. The closing store is itself a release so the whole
/// window is ordered before any subsequent even sequence a reader can see.
/// Every slot mutation goes through this guard; tools/run-lint.sh rejects a
/// sequence store anywhere else in this file.
struct ConcurrentVersionStore::SeqWrite {
  CSlot& sl;
  const std::uint32_t sq;
  explicit SeqWrite(CSlot& s)
      : sl(s), sq(s.seq.load(std::memory_order_relaxed)) {
    sl.seq.store(sq + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
  }
  ~SeqWrite() { sl.seq.store(sq + 2, std::memory_order_release); }
  SeqWrite(const SeqWrite&) = delete;
  SeqWrite& operator=(const SeqWrite&) = delete;
};

ConcurrentVersionStore::ChainPos ConcurrentVersionStore::find_locked(
    Shard& sh, CSlot& sl, bool exact, Ver key) {
  // We hold the shard writer lock, so plain relaxed loads are exact; chains
  // are kept sorted newest-first.
  ChainPos at;
  for (at.cur = sl.head.load(std::memory_order_relaxed); at.cur != kNil;) {
    CBlock& cb = block(sh, at.cur);
    const Ver v = cb.version.load(std::memory_order_relaxed);
    if (v <= key) {
      if (exact && v != key) at.cur = kNil;  // sorted: key is absent
      return at;
    }
    at.pred = at.cur;
    at.cur = cb.next.load(std::memory_order_relaxed);
  }
  return at;
}

void ConcurrentVersionStore::unlink_locked(Shard& sh, CSlot& sl,
                                           std::uint64_t slot, ChainPos at,
                                           std::uint64_t epoch) {
  CBlock& cb = block(sh, at.cur);
  {
    SeqWrite w(sl);
    const std::uint32_t nx = cb.next.load(std::memory_order_relaxed);
    if (at.pred == kNil) {
      sl.head.store(nx, std::memory_order_relaxed);
    } else {
      block(sh, at.pred).next.store(nx, std::memory_order_relaxed);
    }
    cb.locked_by.store(kNoTask, std::memory_order_relaxed);
    sl.nversions.fetch_sub(1, std::memory_order_relaxed);
  }
  if (tracing()) {
    emit(telemetry::EventType::kBlockFreed, OpCode{}, ostruct_addr(slot),
         cb.version.load(std::memory_order_relaxed), trace_id(sh, at.cur));
  }
  sh.limbo.push_back({at.cur, epoch});
}

// ---------------------------------------------------------------------------
// Slot table

ConcurrentVersionStore::CSlot* ConcurrentVersionStore::slot_ptr(
    std::uint64_t slot) const {
  if (slot >= slot_count_.load(std::memory_order_acquire)) return nullptr;
  CSlot* chunk =
      slot_chunk_[slot >> kSlotChunkBits].load(std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  return &chunk[slot & (kSlotChunkSize - 1)];
}

ConcurrentVersionStore::CSlot* ConcurrentVersionStore::live_slot(
    std::uint64_t slot) const {
  CSlot* sp = slot_ptr(slot);
  return sp != nullptr && sp->allocated.load(std::memory_order_acquire) != 0
             ? sp
             : nullptr;
}

ConcurrentVersionStore::SlotRef ConcurrentVersionStore::resolve(OAddr a) {
  const std::uint64_t slot = ostruct_slot(a);
  CSlot* sp = live_slot(slot);
  if (sp == nullptr) fault_unversioned(a);
  return {slot, *sp, shard_of(slot)};
}

OAddr ConcurrentVersionStore::alloc(std::size_t slots) {
  if (slots == 0) fault_zero_slot_alloc();
  if (inj_.fire(FaultSite::kSlotTable)) fault_injected_slot_alloc(slots);
  std::lock_guard<std::mutex> g(alloc_mu_);
  auto& freed = slot_free_[static_cast<std::uint64_t>(slots)];
  std::uint64_t base;
  if (!freed.empty()) {
    base = freed.back();
    freed.pop_back();
  } else {
    base = slot_count_.load(std::memory_order_relaxed);
  }
  const std::uint64_t end = base + slots;
  if (end > kMaxSlotChunks * kSlotChunkSize) {
    throw OFault(FaultKind::kResourceExhausted,
                 "slot table exhausted: alloc of " + std::to_string(slots) +
                     " slots at base slot " + std::to_string(base) +
                     " would exceed the " +
                     std::to_string(kMaxSlotChunks * kSlotChunkSize) +
                     "-slot capacity");
  }
  for (std::uint64_t c = base >> kSlotChunkBits; c <= (end - 1) >> kSlotChunkBits;
       ++c) {
    if (slot_chunk_[c].load(std::memory_order_relaxed) == nullptr) {
      slot_chunk_[c].store(new CSlot[kSlotChunkSize],
                           std::memory_order_release);
    }
  }
  for (std::uint64_t s = base; s < end; ++s) {
    CSlot& sl = slot_chunk_[s >> kSlotChunkBits].load(
        std::memory_order_relaxed)[s & (kSlotChunkSize - 1)];
    assert(sl.head.load(std::memory_order_relaxed) == kNil);
    sl.allocated.store(1, std::memory_order_release);
  }
  if (end > slot_count_.load(std::memory_order_relaxed)) {
    slot_count_.store(end, std::memory_order_release);
  }
  return ostruct_addr(base);
}

void ConcurrentVersionStore::release(OAddr base, std::size_t slots) {
  // Validate the whole range first: a bad slot faults with none released.
  const std::uint64_t first = resolve(base).slot;
  for (std::uint64_t s = first + 1; s < first + slots; ++s) {
    resolve(ostruct_addr(s));
  }
  for (std::uint64_t s = first; s < first + slots; ++s) {
    CSlot& sl = *slot_ptr(s);
    Shard& sh = shard_of(s);
    {
      HookedLock g(*this, sh);
      const std::uint64_t epoch =
          global_epoch_.now.load(std::memory_order_relaxed);
      // One write window empties the chain and clears the versioned bit
      // (readers racing with release retry, then fault on the cleared bit).
      std::uint32_t b;
      {
        SeqWrite w(sl);
        b = sl.head.load(std::memory_order_relaxed);
        sl.head.store(kNil, std::memory_order_relaxed);
        sl.nversions.store(0, std::memory_order_relaxed);
        sl.allocated.store(0, std::memory_order_relaxed);
      }
      while (b != kNil) {
        CBlock& cb = block(sh, b);
        if (tracing()) {
          emit(telemetry::EventType::kBlockFreed, OpCode{}, ostruct_addr(s),
               cb.version.load(std::memory_order_relaxed), trace_id(sh, b));
        }
        const std::uint32_t nx = cb.next.load(std::memory_order_relaxed);
        sh.limbo.push_back({b, epoch});
        b = nx;
      }
      // Shadow-registry entries for this slot point into the chain just
      // retired; drop them so a later reclaim pass does not retire twice.
      std::erase_if(sh.shadowed,
                    [s](const Shadowed& x) { return x.slot == s; });
    }
    advance_epoch();
    // Parked waiters re-check and fault on the cleared versioned bit.
    wake(sh);
  }
  std::lock_guard<std::mutex> g(alloc_mu_);
  slot_free_[static_cast<std::uint64_t>(slots)].push_back(first);
}

// ---------------------------------------------------------------------------
// Block pool and reclamation

std::uint32_t ConcurrentVersionStore::trace_id(Shard& sh, std::uint32_t b) {
  if (sh.trace_ids.size() <= b) sh.trace_ids.resize(b + 1, kNil);
  if (sh.trace_ids[b] == kNil) {
    sh.trace_ids[b] = next_trace_block_.fetch_add(1, std::memory_order_relaxed);
  }
  return sh.trace_ids[b];
}

std::uint32_t ConcurrentVersionStore::alloc_block(ThreadCtx& c, Shard& sh) {
  if (inj_.fire(FaultSite::kBlockPool)) {
    throw OFault(FaultKind::kResourceExhausted,
                 "shard " + std::to_string(shard_index(sh)) +
                     " block pool exhausted (injected) during store by task " +
                     std::to_string(c.cur_task));
  }
  if (sh.shadowed.size() >= cfg_.reclaim_threshold) maybe_reclaim(c, sh);
  if (sh.free_list.empty() && !sh.limbo.empty()) {
    // Harvest limbo blocks whose grace period has passed: no active reader
    // pinned an epoch at or before the retirement epoch, so no optimistic
    // walk can still reach them.
    const std::uint64_t min_epoch = min_active_epoch();
    auto safe = [min_epoch](const Retired& r) { return r.epoch < min_epoch; };
    for (const Retired& r : sh.limbo) {
      if (safe(r)) sh.free_list.push_back(r.block);
    }
    std::erase_if(sh.limbo, safe);
  }
  if (!sh.free_list.empty()) {
    const std::uint32_t b = sh.free_list.back();
    sh.free_list.pop_back();
    return b;
  }
  const std::uint32_t nc = sh.nchunks.load(std::memory_order_relaxed);
  if (sh.next_fresh == nc * kBlockChunkSize) {
    if (nc == kMaxBlockChunks) {
      fault_block_pool_exhausted(
          "shard " + std::to_string(shard_index(sh)),
          std::size_t{kMaxBlockChunks} * kBlockChunkSize,
          "every block live, none reclaimable (task " +
              std::to_string(c.cur_task) + ")");
    }
    sh.chunk[nc].store(new CBlock[kBlockChunkSize],
                       std::memory_order_release);
    sh.nchunks.store(nc + 1, std::memory_order_release);
  }
  return sh.next_fresh++;
}

void ConcurrentVersionStore::maybe_reclaim(ThreadCtx& c, Shard& sh) {
  // Injected GC delay: skip this pass entirely. Callers treat a delayed
  // sweep exactly like an empty one, so pressure just builds until a later
  // consultation lets a pass through.
  if (inj_.fire(FaultSite::kGcDelay)) return;
  // Reclamation eligibility applies the GcPolicy seam's two rules
  // (core/gc_policy.hpp) under the shard writer lock:
  //
  //  * kPaper — the paper's fence rule: a shadowed block can only be named
  //    by tasks older than its shadower, so once every task below the floor
  //    has finished (floor = oldest unfinished task id), blocks whose
  //    shadower is <= floor are unreachable *semantically*.
  //  * kBounded — the per-block range rule: a block holding version v and
  //    shadowed by s is unreachable once no unfinished task id lies in
  //    [v, s) (task ids double as read caps), no matter how old the oldest
  //    unfinished task is — GcTaskTracker::any_in, the serial policy's own
  //    query, asked of every task stripe.
  //
  // Either way the eligible blocks are unlinked here (inside a seqlock
  // write window) and then parked in limbo until the epoch grace period
  // also rules out in-flight optimistic readers.
  //
  // The pass holds the creation mutex throughout. Task ends may still run,
  // but they only shrink the unfinished set, so the floor and the range
  // answers computed below stay conservative; and the gc_floor raise at
  // the bottom is atomic with the decisions — a task created after this
  // pass faults out of every reclaimed range, one created before it is in
  // a stripe and pins its range.
  const bool bounded = cfg_.gc_policy == GcPolicyKind::kBounded;
  if (!bounded) {
    // A paper pass that can retire nothing needs no creation mutex (so it
    // does not queue behind creations and other shards' passes). Read
    // without the mutex, the published minima bound the floor from above:
    // staged ids and creations in flight can only lower it, and ends that
    // land after this scan are a later pass's work. Skipping a pass is
    // always safe.
#if defined(OSIM_MC_SEEDED_BUG) && OSIM_MC_SEEDED_BUG == 3
    const TaskId hint = creation_.cached_floor.load(std::memory_order_acquire);
#else
    const TaskId hint = oldest_unfinished();
#endif
    if (std::none_of(sh.shadowed.begin(), sh.shadowed.end(),
                     [hint](const Shadowed& sd) {
                       return sd.shadower <= hint;
                     })) {
      return;
    }
  }
  const std::uint64_t epoch = global_epoch_.now.load(std::memory_order_relaxed);
  HookedLock create(*this, creation_);
  drain_staged();
#if defined(OSIM_MC_SEEDED_BUG) && OSIM_MC_SEEDED_BUG == 3
  const TaskId floor = creation_.cached_floor.load(std::memory_order_acquire);
#else
  const TaskId floor = bounded ? 0 : task_floor();
#endif
  const std::vector<bool> in_use =
      bounded ? ranges_in_use(sh.shadowed) : std::vector<bool>{};
  std::vector<Shadowed> keep;
  keep.reserve(sh.shadowed.size());
  // A block can carry more than one shadow entry: a mid-list insert
  // registers it at birth, and if its newer neighbours later leave the
  // chain (reclaimed, or rolled back by abort_task), a head insert shadows
  // it a second time. Retiring it via one entry must purge the others — a
  // stale entry left pending could outlive the block's trip through limbo
  // and the free list and then retire a *live* reallocated incarnation of
  // the same block index. `retiring` marks the blocks retired so far.
  std::vector<bool>& retiring = sh.retiring;
  if (retiring.size() < sh.next_fresh) retiring.resize(sh.next_fresh);
  std::vector<std::uint32_t> gone;
  Ver max_shadower = 0;
  // First entry whose block was missing from its chain; reported after
  // the pass (see the unreachable branch below).
  std::optional<Shadowed> broken;
  for (std::size_t i = 0; i < sh.shadowed.size(); ++i) {
    const Shadowed& sd = sh.shadowed[i];
    if (retiring[sd.block]) {
      continue;  // duplicate entry; the block was retired earlier this pass
    }
    CBlock& cb = block(sh, sd.block);
    const bool pinned = bounded ? in_use[i] : sd.shadower > floor;
    if (pinned || cb.locked_by.load(std::memory_order_relaxed) != kNoTask) {
      keep.push_back(sd);
      continue;
    }
    CSlot* sp = slot_ptr(sd.slot);
    if (sp == nullptr) continue;  // release() already retired the chain
    CSlot& sl = *sp;
    const ChainPos at = find_locked(sh, sl, /*exact=*/true, sd.version);
    if (at.cur != sd.block) {
      // Unreachable: a block leaves its chain only through release()
      // (which erases every entry for the slot), an abort (which erases
      // the block's entries) or a retire here (which purges every entry
      // for the block). Keep the entry rather than drop it — dropping
      // would leak the block index, and pushing it to limbo without
      // having unlinked it could double-free — and finish the pass so the
      // shard stays consistent before reporting it.
      if (!broken) broken = sd;
      keep.push_back(sd);
      continue;
    }
    unlink_locked(sh, sl, sd.slot, at, epoch);
    retiring[sd.block] = true;
    gone.push_back(sd.block);
    max_shadower = std::max(max_shadower, sd.shadower);
  }
  if (!gone.empty()) {
    // Purge duplicates that were kept before their block's retiring entry
    // was reached (the mark check above only catches later ones).
    std::erase_if(keep, [&retiring](const Shadowed& x) {
      return retiring[x.block];
    });
    for (const std::uint32_t b : gone) retiring[b] = false;
  }
  sh.shadowed.swap(keep);
  c.local.blocks_reclaimed += gone.size();
  if (!gone.empty()) {
    raise_gc_floor(creation_.gc_floor, max_shadower);
    sched_point(SchedKind::kGcFloorRaise, 0);
    // Advance the epoch so the retired batch's grace period can end once
    // every reader active right now has unpinned.
    advance_epoch();
  }
  if (broken) {
    throw std::logic_error(
        "shadowed block " + std::to_string(broken->block) + " (version " +
        std::to_string(broken->version) + ") missing from the chain of slot " +
        std::to_string(broken->slot));
  }
}

// ---------------------------------------------------------------------------
// Blocking

void ConcurrentVersionStore::wait_change(ThreadCtx& c, Shard& sh, CSlot& sl,
                                         std::uint32_t seq_seen, OpCode op,
                                         OAddr a, Ver v) {
  // Injected deadlock: fault as if the timeout below had already expired.
  // Same FaultKind and diagnostic shape, so the runtime's abort-and-retry
  // path is exercised without waiting out a real timeout.
  if (inj_.fire(FaultSite::kDeadlock)) {
    fault_injected_deadlock(op, v, a, c.cur_task);
  }
  if (hook_ != nullptr) {
    // Model-checked blocking: no spinning, no timed park, no wall clock.
    // The hook suspends this thread until a wake() on the shard (true
    // return; re-examine the slot) or until the scheduler proves no
    // runnable thread can ever signal it (false return) — the
    // deterministic analogue of the deadlock timeout below.
    const std::uint64_t shard = shard_index(sh);
    while (sl.seq.load(std::memory_order_acquire) == seq_seen) {
      if (stop_.load(std::memory_order_acquire)) {
        fault_stopped(op, v, c.cur_task);
      }
      ++c.local.parks;
      if (!hook_->block({SchedKind::kBlocked, shard})) {
        throw OFault(FaultKind::kWouldBlock,
                     "deadlock: " + std::string(to_string(op)) +
                         " of version " + std::to_string(v) + " at address " +
                         std::to_string(a) + " by task " +
                         std::to_string(c.cur_task) +
                         " cannot be satisfied in this schedule");
      }
    }
    ++c.local.spin_waits;
    return;
  }
  for (int i = 0; i < cfg_.spin_iters; ++i) {
    if (sl.seq.load(std::memory_order_acquire) != seq_seen) {
      ++c.local.spin_waits;
      return;
    }
    // On an oversubscribed host a blocked op's best move is handing the
    // core to whoever will publish the version it needs.
    std::this_thread::yield();
  }
  ++c.local.parks;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(cfg_.deadlock_timeout_ms);
  bool timed_out = false;
  bool stopped = false;
  sh.nwaiters.fetch_add(1, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lk(sh.park_mu);
    for (;;) {
      if (sl.seq.load(std::memory_order_acquire) != seq_seen) break;
      if (stop_.load(std::memory_order_acquire)) {
        stopped = true;
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        timed_out = true;
        break;
      }
      // Timed slices bound the cost of wake()'s relaxed waiter-count fast
      // path: a theoretically missed notify only delays us one slice.
      sh.park_cv.wait_for(lk, std::chrono::microseconds(cfg_.park_slice_us));
    }
  }
  sh.nwaiters.fetch_sub(1, std::memory_order_seq_cst);
  if (stopped) fault_stopped(op, v, c.cur_task);
  if (timed_out) {
    throw OFault(FaultKind::kWouldBlock,
                 "deadlock: " + std::string(to_string(op)) + " of version " +
                     std::to_string(v) + " at address " + std::to_string(a) +
                     " by task " + std::to_string(c.cur_task) +
                     " still blocked after " +
                     std::to_string(cfg_.deadlock_timeout_ms) + "ms");
  }
}

void ConcurrentVersionStore::wake(Shard& sh) {
  // The hook's modeled waiters never register in nwaiters, so the
  // announcement must come BEFORE the production fast path below would
  // elide the notify.
  if (hook_ != nullptr) hook_->wake({SchedKind::kWake, shard_index(sh)});
  // Relaxed fast path: a waiter that registers just after this load also
  // re-checks the slot sequence *after* registering, and its wait is
  // timed — worst case it oversleeps one park slice, it cannot hang.
  if (sh.nwaiters.load(std::memory_order_relaxed) == 0) return;
  { std::lock_guard<std::mutex> g(sh.park_mu); }
  sh.park_cv.notify_all();
}

void ConcurrentVersionStore::request_stop() {
  stop_.store(true, std::memory_order_release);
  for (int i = 0; i < nshards_; ++i) {
    Shard& sh = shards_[i];
    { std::lock_guard<std::mutex> g(sh.park_mu); }
    sh.park_cv.notify_all();
  }
}

void ConcurrentVersionStore::reset_stop() {
  stop_.store(false, std::memory_order_release);
}

void ConcurrentVersionStore::emit(telemetry::EventType type, OpCode op,
                                  OAddr addr, Ver version,
                                  std::uint64_t arg) {
  std::lock_guard<std::mutex> g(trace_mu_);
  // Linearization stamp: a mutex-serialized counter as the time and the
  // registered thread id as the core (core/engine_trace.hpp).
  tracer_->emit(make_trace_event(++trace_clock_,
                                 static_cast<CoreId>(ctx_id()), type, op,
                                 addr, version, arg));
}

// ---------------------------------------------------------------------------
// Reads

ConcurrentVersionStore::ReadOutcome ConcurrentVersionStore::try_read(
    ThreadCtx& c, Shard& sh, CSlot& sl, bool exact, Ver key) {
  // Decision point: under a hook, where this optimistic read falls in the
  // interleaving is chosen here, before the epoch pin (a descheduled
  // thread must not hold a pin — it would block reclamation in every
  // branch of the exploration).
  sched_point(SchedKind::kSeqReadBegin, shard_index(sh));
  EpochPin pin(*this, c);
  for (;;) {
    // Seqlock read side (snippet 1's mem_read): take the sequence, walk,
    // fence, re-check. An odd sequence means a writer is mid-flight.
    const std::uint32_t s1 = sl.seq.load(std::memory_order_acquire);
    if ((s1 & 1u) != 0) {
      ++c.local.seq_retries;
      std::this_thread::yield();
      continue;
    }
    bool found = false;
    bool locked = false;
    bool overflow = false;
    Ver got = 0;
    std::uint64_t data = 0;
    std::size_t walked = 0;
    for (std::uint32_t b = sl.head.load(std::memory_order_acquire);
         b != kNil;) {
      if (++walked > cfg_.walk_limit) {
        overflow = true;  // transiently inconsistent chain; retry
        break;
      }
      CBlock& cb = block(sh, b);
      const Ver v = cb.version.load(std::memory_order_acquire);
      if (exact) {
        if (v == key) {
          found = true;
        } else if (v < key) {
          break;  // sorted newest-first: key is absent
        }
      } else if (v <= key) {
        found = true;  // newest version <= cap
      }
      if (found) {
        got = v;
        data = cb.data.load(std::memory_order_relaxed);
        locked = cb.locked_by.load(std::memory_order_relaxed) != kNoTask;
        break;
      }
      b = cb.next.load(std::memory_order_acquire);
    }
    // Read-side validation: the acquire fence orders every load above
    // before the sequence re-check, pairing with the writer's release
    // fence (see store_locked). If the sequence moved, some write window
    // overlapped the walk and any combination of values we saw may be
    // torn — retry.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (overflow && hook_ != nullptr) {
      // Under a hook no writer can be mid-walk (every mutation runs to
      // its next schedule point), so an overflowing walk is not transient
      // inconsistency — it is a corrupted chain (e.g. the seeded
      // alloc-after-walk self-loop) and retrying would hang the whole
      // exploration. Surface it as an engine error instead.
      throw std::runtime_error(
          "ConcurrentVersionStore: version-chain walk exceeded walk_limit "
          "under a schedule hook (corrupted chain)");
    }
    if (!overflow && sl.seq.load(std::memory_order_relaxed) == s1) {
      ReadOutcome out;
      out.seq = s1;
      if (found && !locked) {
        out.ok = true;
        out.got = got;
        out.data = data;
      }
      return out;
    }
    ++c.local.seq_retries;
    sched_point(SchedKind::kSeqReadRetry, shard_index(sh));
  }
}

ConcurrentVersionStore::ReadOutcome ConcurrentVersionStore::read_serialized(
    Shard& sh, CSlot& sl, bool exact, Ver key, OpCode op, OAddr a) {
  HookedLock g(*this, sh);
  ReadOutcome out;
  out.seq = sl.seq.load(std::memory_order_relaxed);
  const std::uint32_t b = find_locked(sh, sl, exact, key).cur;
  if (b == kNil) return out;
  CBlock& cb = block(sh, b);
  if (cb.locked_by.load(std::memory_order_relaxed) == kNoTask) {
    out.ok = true;
    out.got = cb.version.load(std::memory_order_relaxed);
    out.data = cb.data.load(std::memory_order_relaxed);
    // Semantic point of the read, still inside the writer lock: the event
    // stream interleaves store < read for any version this read observed,
    // which is what the checker's dataflow joins need.
    emit(telemetry::EventType::kVersionRead, op, a, out.got, key);
  }
  return out;
}

std::uint64_t ConcurrentVersionStore::load_common(OAddr a, bool exact,
                                                  Ver key, Ver* found,
                                                  OpCode op) {
  ThreadCtx& c = ctx();
  ++c.local.ops;
  ++c.local.loads;
  const SlotRef r = resolve(a);
  if (tracing()) emit(telemetry::EventType::kIsaOp, op, a, key, 0);
  for (;;) {
    const ReadOutcome out =
        tracing() ? read_serialized(r.sh, r.sl, exact, key, op, a)
                  : try_read(c, r.sh, r.sl, exact, key);
    if (out.ok) {
      if (found != nullptr) *found = out.got;
      return out.data;
    }
    wait_change(c, r.sh, r.sl, out.seq, op, a, key);
    // The wait may have been a release(): re-validate the versioned bit so
    // a parked op faults instead of spinning on a dead slot.
    resolve(a);
  }
}

std::uint64_t ConcurrentVersionStore::load_version(OAddr a, Ver v) {
  return load_common(a, /*exact=*/true, v, nullptr, OpCode::kLoadVersion);
}

std::uint64_t ConcurrentVersionStore::load_latest(OAddr a, Ver cap,
                                                  Ver* found) {
  return load_common(a, /*exact=*/false, cap, found, OpCode::kLoadLatest);
}

// ---------------------------------------------------------------------------
// Writes

void ConcurrentVersionStore::store_locked(ThreadCtx& c, const SlotRef& r,
                                          Ver v, std::uint64_t data) {
  const auto& [slot, sl, sh] = r;
#if defined(OSIM_MC_SEEDED_BUG) && OSIM_MC_SEEDED_BUG == 1
  // Seeded PR-6 review bug (model-checking regression fixture, see
  // tests/test_explore_seeded.cpp): walk to the insertion point FIRST,
  // then allocate. alloc_block's reclaim pass can unlink the walked pred
  // or cur from this very chain — and its limbo harvest can hand the
  // just-retired cur back as the new block — so the insert below corrupts
  // the chain (lost store, or a self-loop when nb == cur). osim-mc finds
  // the interleaving via the gc_fence litmus and check_integrity().
  const ChainPos at = find_locked(sh, sl, /*exact=*/false, v);
  const std::uint32_t nb = alloc_block(c, sh);
#else
  // Allocate before walking, like the serial store_impl: alloc_block may
  // run a reclaim pass that unlinks shadowed blocks from this very chain
  // (possibly the walk's pred or cur), and its limbo harvest could even
  // hand a just-unlinked block back as nb. The fresh block itself is not
  // reachable from any chain, so the walk below sees a stable
  // post-reclaim list.
  const std::uint32_t nb = alloc_block(c, sh);
  const ChainPos at = find_locked(sh, sl, /*exact=*/false, v);
#endif
  if (at.cur != kNil &&
      block(sh, at.cur).version.load(std::memory_order_relaxed) == v) {
    // Duplicate version: hand the never-linked block straight back to the
    // free list before faulting (serial store_impl's recycle). No trace
    // event — kBlockAlloc is only emitted once the block is linked, so the
    // checker never saw this one.
    sh.free_list.push_back(nb);
    fault_duplicate_version(v);
  }
  const auto [pred, cur] = at;
  CBlock& b = block(sh, nb);
  b.version.store(v, std::memory_order_relaxed);
  b.data.store(data, std::memory_order_relaxed);
  b.locked_by.store(kNoTask, std::memory_order_relaxed);
  b.next.store(cur, std::memory_order_relaxed);
  {
    SeqWrite w(sl);
    if (pred == kNil) {
      sl.head.store(nb, std::memory_order_relaxed);
    } else {
      block(sh, pred).next.store(nb, std::memory_order_relaxed);
    }
    sl.nversions.fetch_add(1, std::memory_order_relaxed);
  }

  ++c.local.blocks_allocated;

  // Shadow registration (paper Sec. III-B): a head insert shadows the old
  // head (if any) with the new version; a mid-list insert is itself born
  // shadowed by its immediately-newer neighbour, a version this store did
  // not make. A journaled head insert leaves the old head's registration
  // to task_end (core/undo_journal.hpp, committed-shadower rule).
  const bool at_head = pred == kNil;
  const std::uint32_t shadowed = at_head ? cur : nb;
  const Ver shadower =
      at_head ? v : block(sh, pred).version.load(std::memory_order_relaxed);
  const Ver shadowed_v =
      shadowed == kNil
          ? 0
          : block(sh, shadowed).version.load(std::memory_order_relaxed);
  const bool deferred = at_head && shadowed != kNil &&
                        undo_active(cfg_.track_aborts, c.cur_task);
  journal(c, {UndoEntry::Kind::kStore, slot, v, kNullBlock, 0,
              deferred ? shadowed : kNullBlock, 0, shadowed_v});
  if (shadowed != kNil && !deferred) {
    sh.shadowed.push_back({shadowed, shadowed_v, shadower, slot});
  }

  if (tracing()) {
    const OAddr a = ostruct_addr(slot);
    emit(telemetry::EventType::kBlockAlloc, OpCode{}, 0, 0, trace_id(sh, nb));
    emit(telemetry::EventType::kVersionStore, OpCode{}, a, v,
         trace_id(sh, nb));
    if (shadowed != kNil) {
      emit(telemetry::EventType::kBlockShadowed, OpCode{}, a, shadower,
           trace_id(sh, shadowed));
    }
  }
}

void ConcurrentVersionStore::store_version(OAddr a, Ver v,
                                           std::uint64_t data) {
  ThreadCtx& c = ctx();
  ++c.local.ops;
  ++c.local.stores;
  const SlotRef r = resolve(a);
  if (tracing()) emit(telemetry::EventType::kIsaOp, OpCode::kStoreVersion, a, v, 0);
  {
    HookedLock g(*this, r.sh);
    store_locked(c, r, v, data);
  }
  wake(r.sh);
}

std::uint64_t ConcurrentVersionStore::lock_load_common(OAddr a, bool exact,
                                                       Ver key, TaskId locker,
                                                       Ver* found, OpCode op) {
  ThreadCtx& c = ctx();
  ++c.local.ops;
  ++c.local.lock_ops;
  const SlotRef r = resolve(a);
  if (tracing()) emit(telemetry::EventType::kIsaOp, op, a, key, 0);
  for (;;) {
    std::uint32_t seq_seen;
    {
      HookedLock g(*this, r.sh);
      const std::uint32_t cand = find_locked(r.sh, r.sl, exact, key).cur;
      if (cand != kNil) {
        CBlock& cb = block(r.sh, cand);
        if (cb.locked_by.load(std::memory_order_relaxed) == kNoTask) {
          // Taking the lock needs no seqlock window: optimistic readers
          // that read the pre-lock state linearize before the acquisition
          // (versions are immutable, so the value they return is the value
          // under the lock too).
          cb.locked_by.store(locker, std::memory_order_relaxed);
          const Ver got = cb.version.load(std::memory_order_relaxed);
          const std::uint64_t data = cb.data.load(std::memory_order_relaxed);
          journal(c, {UndoEntry::Kind::kLock, r.slot, got});
          if (tracing()) {
            emit(telemetry::EventType::kVersionRead, op, a, got, key);
            emit(telemetry::EventType::kLockAcquire, OpCode{}, a, got,
                 locker);
          }
          if (found != nullptr) *found = got;
          return data;
        }
      }
      seq_seen = r.sl.seq.load(std::memory_order_relaxed);
    }
    wait_change(c, r.sh, r.sl, seq_seen, op, a, key);
    resolve(a);  // re-validate after a potential release()
  }
}

std::uint64_t ConcurrentVersionStore::lock_load_version(OAddr a, Ver v,
                                                        TaskId locker) {
  return lock_load_common(a, /*exact=*/true, v, locker, nullptr,
                          OpCode::kLockLoadVersion);
}

std::uint64_t ConcurrentVersionStore::lock_load_latest(OAddr a, Ver cap,
                                                       TaskId locker,
                                                       Ver* found) {
  return lock_load_common(a, /*exact=*/false, cap, locker, found,
                          OpCode::kLockLoadLatest);
}

void ConcurrentVersionStore::unlock_version(OAddr a, Ver locked_v,
                                            TaskId owner,
                                            std::optional<Ver> rename_to) {
  ThreadCtx& c = ctx();
  ++c.local.ops;
  ++c.local.lock_ops;
  const SlotRef r = resolve(a);
  if (tracing()) {
    emit(telemetry::EventType::kIsaOp, OpCode::kUnlockVersion, a, locked_v, 0);
  }
  {
    HookedLock g(*this, r.sh);
    const std::uint32_t target =
        find_locked(r.sh, r.sl, /*exact=*/true, locked_v).cur;
    if (target == kNil) fault_unlock_missing(locked_v);
    CBlock& cb = block(r.sh, target);
    const TaskId holder = cb.locked_by.load(std::memory_order_relaxed);
    if (holder != owner) fault_unlock_foreign(locked_v, holder, owner);
    if (rename_to.has_value() &&
        find_locked(r.sh, r.sl, /*exact=*/true, *rename_to).cur != kNil) {
      fault_rename_exists(*rename_to);
    }
    const std::uint64_t data = cb.data.load(std::memory_order_relaxed);
    // The unlock is a slot mutation parked readers wait for, so it runs
    // inside a seqlock window (the sequence change is their wake signal).
    {
      SeqWrite w(r.sl);
      cb.locked_by.store(kNoTask, std::memory_order_relaxed);
    }
    if (tracing()) {
      emit(telemetry::EventType::kLockRelease, OpCode{}, a, locked_v, owner);
    }
    if (rename_to.has_value()) {
      // Renaming: materialize the same value as a new, unlocked version.
      store_locked(c, r, *rename_to, data);
    }
  }
  wake(r.sh);
}

// ---------------------------------------------------------------------------
// Task lifecycle (GC rules #1-#3)

TaskId ConcurrentVersionStore::oldest_unfinished() const {
  TaskId m = kNoLiveTask;
  for (const TaskStripe& ts : stripes_) {
    m = std::min(m, ts.oldest.load(std::memory_order_acquire));
  }
  return m;
}

TaskId ConcurrentVersionStore::task_floor() const {
  // Every live id is <= max_task, so with no task unfinished everything
  // created so far is done.
  return std::min(oldest_unfinished(), creation_.max_task + 1);
}

std::vector<bool> ConcurrentVersionStore::ranges_in_use(
    const std::vector<Shadowed>& sds) {
  std::vector<bool> used(sds.size(), false);
  Ver hi = 0;
  for (const Shadowed& sd : sds) hi = std::max(hi, sd.shadower);
  for (TaskStripe& ts : stripes_) {
    // A stripe whose oldest unfinished id is past every range pins none,
    // and without creations it stays past them: skip it unlocked.
    if (ts.oldest.load(std::memory_order_acquire) >= hi) continue;
    HookedLock g(*this, ts);
    for (std::size_t i = 0; i < sds.size(); ++i) {
      if (!used[i]) used[i] = ts.tasks.any_in(sds[i].version, sds[i].shadower);
    }
  }
  return used;
}

void ConcurrentVersionStore::drain_staged() {
  if (staged_.empty()) return;
  // Counting sort by stripe; each group keeps creation order, which is
  // usually ascending, the tracker's cheap append.
  std::array<std::size_t, kTaskStripes + 1> start{};
  for (const TaskId t : staged_) ++start[(t & (kTaskStripes - 1)) + 1];
  for (std::size_t i = 0; i < kTaskStripes; ++i) start[i + 1] += start[i];
  std::vector<TaskId> grouped(staged_.size());
  std::array<std::size_t, kTaskStripes + 1> next = start;
  for (const TaskId t : staged_) grouped[next[t & (kTaskStripes - 1)]++] = t;
  for (std::size_t i = 0; i < kTaskStripes; ++i) {
    if (start[i] == start[i + 1]) continue;
    TaskStripe& ts = stripes_[i];
    HookedLock g(*this, ts);
    for (std::size_t k = start[i]; k < start[i + 1]; ++k) {
      ts.tasks.add(grouped[k]);
    }
    ts.publish();
  }
  staged_.clear();
}

void ConcurrentVersionStore::create_task(TaskId t, bool if_absent) {
  HookedLock g(*this, creation_);
  // A task at or above every id created so far cannot be older than an
  // unfinished one; only an out-of-order creation looks for the oldest,
  // over the published minima and the staged ids. It looks before any
  // stripe is taken, so under the schedule hook a segment that holds a
  // stripe touches no other stripe.
  std::optional<TaskId> oldest;
  if (t < creation_.max_task) {
    TaskId m = oldest_unfinished();
    for (const TaskId s : staged_) m = std::min(m, s);
    if (m != kNoLiveTask) oldest = m;
  }
  if (if_absent) {
    drain_staged();  // t may be staged
    TaskStripe& ts = stripe_of(t);
    HookedLock sg(*this, ts);
    if (ts.tasks.contains(t)) return;
    GcTaskTracker::check_creation(t, oldest, creation_.gc_floor);
    ts.tasks.add(t);
    ts.publish();
  } else {
    GcTaskTracker::check_creation(t, oldest, creation_.gc_floor);
    staged_.push_back(t);
    if (staged_.size() >= kStagedBatch) drain_staged();
  }
  creation_.max_task = std::max(creation_.max_task, t);
}

void ConcurrentVersionStore::task_created(TaskId t) {
  create_task(t, /*if_absent=*/false);
  if (tracing()) {
    emit(telemetry::EventType::kTaskCreated, OpCode{}, 0, t, 0);
  }
}

void ConcurrentVersionStore::task_begin(TaskId t) {
  if (tracing()) {
    emit(telemetry::EventType::kIsaOp, OpCode::kTaskBegin, 0, t, 0);
  }
  TaskStripe& ts = stripe_of(t);
  bool known;
  {
    HookedLock g(*this, ts);
    known = ts.tasks.contains(t);
  }
  if (!known) create_task(t, /*if_absent=*/true);  // or it was staged
  ThreadCtx& c = ctx();
  c.cur_task = t;
  c.undo.clear();  // a retry must not re-undo the aborted attempt's journal
}

void ConcurrentVersionStore::task_end(TaskId t) {
  if (tracing()) {
    emit(telemetry::EventType::kIsaOp, OpCode::kTaskEnd, 0, t, 0);
  }
  ThreadCtx& endc = ctx();
  if (endc.cur_task == t) {
    // Committed: register the older heads its stores shadowed that are
    // still linked (core/undo_journal.hpp).
    for (const UndoEntry& e : endc.undo) {
      CSlot* sp = e.shadowed == kNullBlock ? nullptr : live_slot(e.slot);
      if (sp == nullptr) continue;
      Shard& sh = shard_of(e.slot);
      HookedLock g(*this, sh);
      if (find_locked(sh, *sp, /*exact=*/true, e.shadowed_version).cur ==
          e.shadowed) {
        sh.shadowed.push_back(
            {e.shadowed, e.shadowed_version, e.version, e.slot});
      }
    }
  }
  endc.cur_task = kNoTask;
  endc.undo.clear();
  TaskStripe& ts = stripe_of(t);
  bool ended;
  {
    HookedLock g(*this, ts);
    ended = ts.tasks.remove(t);
    if (ended) ts.publish();
  }
  if (!ended) {
    // Not in its stripe: it may still be staged (else end_checked faults).
    {
      HookedLock g(*this, creation_);
      drain_staged();
    }
    HookedLock g(*this, ts);
    ts.tasks.end_checked(t);
    ts.publish();
  }
#if defined(OSIM_MC_SEEDED_BUG) && OSIM_MC_SEEDED_BUG == 3
  // Seeded stale-floor bug (model-checking regression fixture, see
  // tests/test_explore_seeded.cpp): the floor is cached here and read by
  // maybe_reclaim, as before the stripes. With every task finished it is
  // max_task + 1, and a task created later below it never lowers it, so a
  // reclaim pass frees versions that task can still read. osim-mc finds
  // it via the late_create litmus and the serial oracle.
  HookedLock g(*this, creation_);
  drain_staged();
  creation_.cached_floor.store(task_floor(), std::memory_order_release);
#endif
}

void ConcurrentVersionStore::abort_task(TaskId t) {
  if (!cfg_.track_aborts) {
    throw OFault(FaultKind::kTaskOrderViolation,
                 "abort_task(" + std::to_string(t) +
                     ") requires ConcurrencyConfig::track_aborts");
  }
  sched_point(SchedKind::kTaskOp, 0);
  ThreadCtx& c = ctx();
  bool freed_any = false;
  // Per-entry undo action for the shared newest-first driver (see
  // core/undo_journal.hpp for why reverse order is load-bearing). This
  // engine's revalidation is the chain walk under the shard lock: entries
  // are keyed (slot, version), and a version no longer on the chain was
  // reclaimed or released before the abort. One body serves both entry
  // kinds so the seqlock-windowed surgery stays in a single locked scope.
  auto undo_one = [&](const UndoEntry& e) -> bool {
    CSlot* sp = live_slot(e.slot);
    if (sp == nullptr) return false;  // the O-structure was released since
    CSlot& sl = *sp;
    Shard& sh = shard_of(e.slot);
    {
      HookedLock g(*this, sh);
      const ChainPos at = find_locked(sh, sl, /*exact=*/true, e.version);
      if (at.cur == kNil) return false;  // reclaimed before the abort
      CBlock& cb = block(sh, at.cur);
      if (e.kind == UndoEntry::Kind::kLock) {
        if (cb.locked_by.load(std::memory_order_relaxed) != t) {
          return false;  // already unlocked (or re-locked by another task)
        }
        {
          SeqWrite w(sl);
          cb.locked_by.store(kNoTask, std::memory_order_relaxed);
        }
        if (tracing()) {
          emit(telemetry::EventType::kLockRelease, OpCode{},
               ostruct_addr(e.slot), e.version, t);
        }
      } else {
        const std::uint64_t epoch =
            global_epoch_.now.load(std::memory_order_relaxed);
        // The neighbours v shadowed are live again; tell the checker
        // before v's free event. The older head was never registered
        // (task_end would have); mid-list inserts born under v were, and
        // their entries go with those naming the dead block, so none is
        // retired under v's fence.
        const OAddr a = ostruct_addr(e.slot);
        if (tracing() && e.shadowed != kNullBlock &&
            find_locked(sh, sl, /*exact=*/true, e.shadowed_version).cur ==
                e.shadowed) {
          emit(telemetry::EventType::kBlockRestored, OpCode{}, a,
               e.shadowed_version, trace_id(sh, e.shadowed));
        }
        std::erase_if(sh.shadowed, [&](const Shadowed& x) {
          if (x.block == at.cur) return true;
          if (x.slot != e.slot || x.shadower != e.version) return false;
          if (tracing()) {
            emit(telemetry::EventType::kBlockRestored, OpCode{}, a, x.version,
                 trace_id(sh, x.block));
          }
          return true;
        });
        // Unlink the created version. A lock another task took on it dies
        // with the block — their unlock will fault kNotLockOwner, the
        // deterministic "you read an aborted version" signal.
        unlink_locked(sh, sl, e.slot, at, epoch);
        freed_any = true;
      }
    }
    wake(sh);
    return true;
  };
  const AbortTally undone = replay_abort(c.undo, undo_one, undo_one);
  ++c.local.tasks_aborted;
  c.local.aborted_blocks += undone.blocks;
  c.local.aborted_locks += undone.locks;
  c.undo.clear();
  if (c.cur_task == t) c.cur_task = kNoTask;
  if (freed_any) {
    // Open the unlinked blocks' grace period; they become harvestable once
    // every reader active right now has unpinned.
    advance_epoch();
  }
  if (tracing()) {
    emit(telemetry::EventType::kTaskAborted, OpCode{}, 0, t, undone.blocks);
  }
}

// ---------------------------------------------------------------------------
// Host-side inspection

std::optional<std::uint64_t> ConcurrentVersionStore::peek_version(OAddr a,
                                                                  Ver v) {
  const auto [slot, sl, sh] = resolve(a);
  HookedLock g(*this, sh);
  const std::uint32_t b = find_locked(sh, sl, /*exact=*/true, v).cur;
  if (b == kNil) return std::nullopt;
  return block(sh, b).data.load(std::memory_order_relaxed);
}

std::optional<Ver> ConcurrentVersionStore::newest_version(OAddr a) {
  const auto [slot, sl, sh] = resolve(a);
  HookedLock g(*this, sh);
  const std::uint32_t b = sl.head.load(std::memory_order_relaxed);
  if (b == kNil) return std::nullopt;
  return block(sh, b).version.load(std::memory_order_relaxed);
}

std::optional<TaskId> ConcurrentVersionStore::lock_holder(OAddr a, Ver v) {
  const auto [slot, sl, sh] = resolve(a);
  HookedLock g(*this, sh);
  const std::uint32_t b = find_locked(sh, sl, /*exact=*/true, v).cur;
  if (b == kNil) return std::nullopt;
  const TaskId l = block(sh, b).locked_by.load(std::memory_order_relaxed);
  return l == kNoTask ? std::nullopt : std::optional<TaskId>(l);
}

int ConcurrentVersionStore::version_count(OAddr a) {
  const auto [slot, sl, sh] = resolve(a);
  HookedLock g(*this, sh);
  return static_cast<int>(sl.nversions.load(std::memory_order_relaxed));
}

std::vector<std::pair<Ver, std::uint64_t>>
ConcurrentVersionStore::slot_versions(OAddr a) {
  const auto [slot, sl, sh] = resolve(a);
  HookedLock g(*this, sh);
  std::vector<std::pair<Ver, std::uint64_t>> out;
  for (std::uint32_t b = sl.head.load(std::memory_order_relaxed);
       b != kNil;) {
    CBlock& cb = block(sh, b);
    out.emplace_back(cb.version.load(std::memory_order_relaxed),
                     cb.data.load(std::memory_order_relaxed));
    b = cb.next.load(std::memory_order_relaxed);
  }
  return out;
}

ConcurrentVersionStore::Stats ConcurrentVersionStore::stats() const {
  Counters s;
  for (const auto& [name, field] : kStatsNames) {
    s.*field = metrics_.total(telemetry::Component::kOsm, name);
  }
  return s;
}

ConcurrentVersionStore::IntegrityReport
ConcurrentVersionStore::check_integrity() {
  IntegrityReport rep;
  const std::uint64_t nslots = slot_count_.load(std::memory_order_acquire);
  for (std::uint64_t s = 0; s < nslots && rep.ok; ++s) {
    CSlot* sp = live_slot(s);
    if (sp == nullptr) continue;
    Shard& sh = shard_of(s);
    HookedLock g(*this, sh);
    // Bounded walk with explicit visited tracking: a corrupted chain may
    // be cyclic, so the walk must terminate on the first revisit rather
    // than trusting the list structure it is auditing.
    std::vector<std::uint32_t> seen;
    bool first = true;
    Ver prev = 0;
    for (std::uint32_t b = sp->head.load(std::memory_order_relaxed);
         b != kNil; ) {
      if (std::find(seen.begin(), seen.end(), b) != seen.end()) {
        rep.ok = false;
        rep.detail = "slot " + std::to_string(s) +
                     ": cycle in version chain at block " + std::to_string(b);
        break;
      }
      seen.push_back(b);
      CBlock& cb = block(sh, b);
      const Ver v = cb.version.load(std::memory_order_relaxed);
      if (!first && v >= prev) {
        rep.ok = false;
        rep.detail = "slot " + std::to_string(s) +
                     ": versions not strictly descending (" +
                     std::to_string(prev) + " then " + std::to_string(v) +
                     ")";
        break;
      }
      first = false;
      prev = v;
      b = cb.next.load(std::memory_order_relaxed);
    }
    if (rep.ok &&
        seen.size() != sp->nversions.load(std::memory_order_relaxed)) {
      rep.ok = false;
      rep.detail =
          "slot " + std::to_string(s) + ": nversions " +
          std::to_string(sp->nversions.load(std::memory_order_relaxed)) +
          " != chain length " + std::to_string(seen.size());
    }
  }
  return rep;
}

}  // namespace osim
