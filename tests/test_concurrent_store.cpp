// Stress and correctness tests for the thread-safe engine
// (core/concurrent_store.hpp): final-state equivalence against a
// single-threaded replay, mutual exclusion through version locks, seqlock
// torn-read detection, reclamation under concurrent optimistic readers,
// and the deadlock fault diagnostics. tools/run-sanitizers.sh runs this
// binary under TSan — the seqlock and epoch machinery is designed to be
// data-race-free at the C++ memory-model level, not merely "works on
// x86".
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "core/concurrent_store.hpp"
#include "core/fault.hpp"
#include "runtime/concurrent.hpp"
#include "runtime/env.hpp"
#include "sim/machine.hpp"

namespace osim {
namespace {

std::uint64_t mix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t data_for(Ver v, std::uint64_t slot) {
  return (v * 0x9E3779B97F4A7C15ull) ^ (slot << 17) ^ 0x5DEECE66Dull;
}

/// A randomized but deterministic op stream: thread t's ops depend only on
/// (t, nthreads, seed), never on scheduling. Stores get globally unique
/// versions (2 + t + i*nthreads); reads name a version thread t itself
/// stored earlier, so they never block.
struct PlannedStream {
  struct Op {
    std::uint64_t slot;
    Ver store_version;  ///< nonzero: store; zero: read `read_version`
    Ver read_version;
  };
  std::vector<Op> ops;
};

PlannedStream plan_stream(int t, int nthreads, int nops,
                          std::uint64_t nslots) {
  PlannedStream st;
  std::uint64_t seed = 0xC0FFEEull + static_cast<std::uint64_t>(t) * 7919;
  std::vector<std::pair<std::uint64_t, Ver>> mine;  // (slot, version) stored
  for (int i = 0; i < nops; ++i) {
    PlannedStream::Op op;
    const bool is_store = mine.empty() || mix64(seed) % 100 < 60;
    if (is_store) {
      op.store_version = 2 + static_cast<Ver>(t) +
                         static_cast<Ver>(mine.size()) *
                             static_cast<Ver>(nthreads);
      op.slot = mix64(seed) % nslots;
      op.read_version = 0;
      mine.emplace_back(op.slot, op.store_version);
    } else {
      const auto& prev = mine[mix64(seed) % mine.size()];
      op.slot = prev.first;
      op.store_version = 0;
      op.read_version = prev.second;
    }
    st.ops.push_back(op);
  }
  return st;
}

/// Runs the streams on `workers` host threads. Read results are validated
/// against data_for() via an atomic mismatch counter rather than gtest
/// assertions: ASSERT/EXPECT are only safe on the main thread, so worker
/// threads record failures and the caller asserts the count is zero.
std::uint64_t run_streams(ConcurrentVersionStore& store, OAddr base,
                          const std::vector<PlannedStream>& streams,
                          int workers) {
  std::atomic<std::uint64_t> mismatches{0};
  ConcurrentTaskPool pool(store, workers);
  for (std::size_t t = 0; t < streams.size(); ++t) {
    const PlannedStream& st = streams[t];
    pool.create_task(static_cast<TaskId>(t + 1),
                     [&st, &store, base, &mismatches](TaskId) {
      for (const auto& op : st.ops) {
        const OAddr a = base + 8 * op.slot;
        if (op.store_version != 0) {
          store.store_version(a, op.store_version,
                              data_for(op.store_version, op.slot));
        } else if (store.load_version(a, op.read_version) !=
                   data_for(op.read_version, op.slot)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  pool.run();
  return mismatches.load(std::memory_order_relaxed);
}

// The parallel engine must produce exactly the final O-structure state of a
// single-threaded replay of the same streams: the store *set* determines
// the state, not the interleaving.
TEST(ConcurrentStore, FinalStateMatchesSerialReplay) {
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  constexpr std::uint64_t kSlots = 64;
  std::vector<PlannedStream> streams;
  for (int t = 0; t < kThreads; ++t) {
    streams.push_back(plan_stream(t, kThreads, kOps, kSlots));
  }

  ConcurrentVersionStore parallel;
  const OAddr pb = parallel.alloc(kSlots);
  EXPECT_EQ(run_streams(parallel, pb, streams, kThreads), 0u);

  ConcurrentVersionStore serial;
  const OAddr sb = serial.alloc(kSlots);
  EXPECT_EQ(run_streams(serial, sb, streams, /*workers=*/1), 0u);

  for (std::uint64_t s = 0; s < kSlots; ++s) {
    EXPECT_EQ(parallel.slot_versions(pb + 8 * s),
              serial.slot_versions(sb + 8 * s))
        << "slot " << s;
  }
  const auto stats = parallel.stats();
  EXPECT_EQ(stats.stores, serial.stats().stores);
}

// Version locks must give real mutual exclusion across host threads: N
// threads increment a plain (non-atomic) counter under LOCK-LOAD /
// UNLOCK(rename) chains; any lost update means two threads were inside the
// critical section at once.
TEST(ConcurrentStore, ContendedCounterLockMutualExclusion) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 500;
  ConcurrentVersionStore store;
  const OAddr counter = store.alloc(1);
  store.store_version(counter, 1, 0);

  std::uint64_t plain_counter = 0;  // deliberately unprotected
  std::atomic<Ver> next_rename{2};

  ConcurrentTaskPool pool(store, kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.create_task(
        static_cast<TaskId>(t + 1),
        [&store, counter, &plain_counter, &next_rename](TaskId me) {
          for (int i = 0; i < kIncrements; ++i) {
            Ver got = 0;
            store.lock_load_latest(counter, ~Ver{0}, me, &got);
            plain_counter += 1;  // the protected region
            const Ver fresh =
                next_rename.fetch_add(1, std::memory_order_relaxed);
            // Rename forward so the latest version is always the one the
            // next locker grabs; the old version stays (immutable history).
            store.unlock_version(counter, got, me, fresh);
          }
        });
  }
  pool.run();
  EXPECT_EQ(plain_counter,
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(store.version_count(counter), 1 + kThreads * kIncrements);
}

// Seqlock validation: concurrent writers keep prepending versions while
// readers hammer optimistic LOAD-VERSION walks. Every read must return the
// data stored for exactly that version — a torn walk (pointer from one
// write window, data from another) would break the pairing.
TEST(ConcurrentStore, SeqlockTornReadDetection) {
  constexpr std::uint64_t kSlots = 4;  // few slots = maximal seq churn
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kVersionsPerWriter = 3000;
  ConcurrentVersionStore store;
  const OAddr base = store.alloc(kSlots);
  for (std::uint64_t s = 0; s < kSlots; ++s) {
    store.store_version(base + 8 * s, 1, data_for(1, s));
  }

  // Each reader keeps going until the writers are done AND it has made at
  // least kMinReadsPerReader validated reads — a starved reader (plausible
  // on a loaded single-core host) must not end the test with zero reads.
  // Validation failures are counted atomically and asserted on the main
  // thread; gtest ASSERT/EXPECT are not safe from spawned threads.
  constexpr std::uint64_t kMinReadsPerReader = 1000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads_done{0};
  std::atomic<std::uint64_t> torn_reads{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&store, base, w] {
      for (int i = 0; i < kVersionsPerWriter; ++i) {
        const Ver v = 2 + static_cast<Ver>(w) +
                      static_cast<Ver>(i) * kWriters;
        const std::uint64_t slot = v % kSlots;
        store.store_version(base + 8 * slot, v, data_for(v, slot));
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&store, base, &stop, &reads_done, &torn_reads, r] {
      std::uint64_t seed = 0xFACEull + static_cast<std::uint64_t>(r);
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_acquire) ||
             local < kMinReadsPerReader) {
        const std::uint64_t slot = mix64(seed) % kSlots;
        Ver got = 0;
        const std::uint64_t d =
            store.load_latest(base + 8 * slot, ~Ver{0}, &got);
        // The pair (got, d) must be internally consistent no matter how
        // many write windows the walk raced with.
        if (d != data_for(got, slot)) {
          torn_reads.fetch_add(1, std::memory_order_relaxed);
        }
        ++local;
      }
      reads_done.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  stop.store(true, std::memory_order_release);
  for (std::size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
  EXPECT_EQ(torn_reads.load(), 0u);
  EXPECT_GE(reads_done.load(), kMinReadsPerReader * kReaders);
}

// Epoch-based reclamation must recycle shadowed blocks while optimistic
// readers are in flight, without ever handing a reader freed memory. Tasks
// finish in waves so the GC fence keeps advancing.
TEST(ConcurrentStore, ReclamationUnderReaders) {
  ConcurrencyConfig cfg;
  cfg.reclaim_threshold = 16;  // reclaim aggressively
  ConcurrentVersionStore store(cfg);
  const OAddr a = store.alloc(1);
  store.store_version(a, 1, data_for(1, 0));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn_reads{0};  // asserted on the main thread
  std::thread reader([&store, a, &stop, &torn_reads] {
    while (!stop.load(std::memory_order_acquire)) {
      Ver got = 0;
      const std::uint64_t d = store.load_latest(a, ~Ver{0}, &got);
      if (d != data_for(got, 0)) {
        torn_reads.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  // Each short task stores one newer version (shadowing the previous
  // head) and immediately ends, advancing the fence so the shadowed block
  // becomes reclaimable.
  constexpr int kTasks = 4000;
  for (int t = 1; t <= kTasks; ++t) {
    const TaskId tid = static_cast<TaskId>(t);
    store.task_created(tid);
    store.task_begin(tid);
    const Ver v = 1 + static_cast<Ver>(t);
    store.store_version(a, v, data_for(v, 0));
    store.task_end(tid);
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn_reads.load(), 0u);

  const auto stats = store.stats();
  EXPECT_GT(stats.blocks_reclaimed, 0u);
  // The newest version is always intact and the chain is far shorter than
  // the kTasks+1 versions ever stored.
  EXPECT_EQ(store.newest_version(a), Ver{1 + kTasks});
  EXPECT_LT(store.version_count(a), kTasks / 2);
  EXPECT_EQ(store.peek_version(a, 1 + kTasks),
            std::optional<std::uint64_t>(data_for(1 + kTasks, 0)));
}

// A genuinely unsatisfiable wait must fault kWouldBlock after the timeout,
// and the diagnostic must name the op and the parked task (satellite of the
// functional backend's instant-fault message).
TEST(ConcurrentStore, DeadlockFaultReportsTaskAndOp) {
  ConcurrencyConfig cfg;
  cfg.deadlock_timeout_ms = 100;
  cfg.spin_iters = 4;
  ConcurrentVersionStore store(cfg);
  const OAddr a = store.alloc(1);
  store.store_version(a, 1, 7);

  ConcurrentTaskPool pool(store, 1);
  pool.create_task(42, [&store, a](TaskId) {
    store.load_version(a, 999);  // never stored by anyone
  });
  try {
    pool.run();
    FAIL() << "expected SimError from the deadlocked load";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("LOAD-VERSION"), std::string::npos) << msg;
    EXPECT_NE(msg.find("task 42"), std::string::npos) << msg;
    EXPECT_NE(msg.find("999"), std::string::npos) << msg;
    EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("address " + std::to_string(a)), std::string::npos)
        << msg;
    // The reported timeout is ConcurrencyConfig's, not a hard-wired value.
    EXPECT_NE(msg.find("after 100ms"), std::string::npos) << msg;
  }
}

// request_stop() unwinds every parked waiter promptly (the pool uses it to
// abort a run after a worker error) and reset_stop() re-arms the store.
TEST(ConcurrentStore, WorkerErrorAbortsParkedWaiters) {
  ConcurrencyConfig cfg;
  cfg.deadlock_timeout_ms = 30000;  // parked op must NOT wait this out
  cfg.spin_iters = 4;
  ConcurrentVersionStore store(cfg);
  const OAddr a = store.alloc(1);
  store.store_version(a, 1, 7);

  ConcurrentTaskPool pool(store, 2);
  pool.create_task(1, [&store, a](TaskId) {
    store.load_version(a, 999);  // parks forever
  });
  pool.create_task(2, [](TaskId) {
    throw std::runtime_error("worker exploded");
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(pool.run(), SimError);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(secs, 10.0) << "stop request did not unwind the parked waiter";

  // The store re-arms: the same op now faults only via its own timeout
  // path, and satisfiable ops succeed.
  store.store_version(a, 2, 9);
  EXPECT_EQ(store.load_version(a, 2), 9u);
}

// Task bookkeeping mirrors the serial GC rules with the same diagnostics:
// creating a task older than the oldest unfinished one, TASK-END of an
// unknown task, and — once a reclaim has raised the GC floor — creating a
// task at or below the floor all fault kTaskOrderViolation with the serial
// functional engine's exact what() text.
std::vector<std::string> task_order_faults(VersionEngine& eng) {
  std::vector<std::string> what;
  auto expect_fault = [&](auto&& op) {
    try {
      op();
      ADD_FAILURE() << "expected kTaskOrderViolation";
    } catch (const OFault& f) {
      EXPECT_EQ(f.kind(), FaultKind::kTaskOrderViolation);
      what.emplace_back(f.what());
    }
  };
  eng.task_created(5);
  expect_fault([&] { eng.task_created(3); });
  expect_fault([&] { eng.task_end(99); });
  eng.task_end(5);
  // With every task finished, version 1 shadowed by 5 is reclaimed on the
  // next store's allocation, raising the GC floor to 5 - 1.
  const OAddr a = eng.alloc(1);
  eng.store_version(a, 1, 10);
  eng.store_version(a, 5, 50);
  eng.store_version(a, 6, 60);
  expect_fault([&] { eng.task_created(4); });
  eng.task_created(5);  // just above the floor
  eng.task_end(5);
  return what;
}

TEST(ConcurrentStore, TaskOrderRulesMatchSerialEngine) {
  MachineConfig mcfg;
  mcfg.backend = BackendKind::kFunctional;
  // Collect on every allocation, so the serial engine reclaims at the same
  // store as the concurrent one below.
  mcfg.ostruct.gc_watermark = mcfg.ostruct.initial_pool_blocks + 1;
  Env env(mcfg);
  const std::vector<std::string> serial = task_order_faults(env.engine());

  ConcurrencyConfig cfg;
  cfg.reclaim_threshold = 1;
  ConcurrentVersionStore store(cfg);
  const std::vector<std::string> concurrent = task_order_faults(store);

  EXPECT_EQ(concurrent, serial);
  ASSERT_EQ(serial.size(), 3u);
  EXPECT_NE(serial[0].find("task 3 is older than the oldest unfinished task 5"),
            std::string::npos)
      << serial[0];
  EXPECT_NE(serial[1].find("TASK-END for task 99 which is not running"),
            std::string::npos)
      << serial[1];
  EXPECT_NE(serial[2].find("task 4 is not above the GC floor 4"),
            std::string::npos)
      << serial[2];
  EXPECT_EQ(store.stats().blocks_reclaimed, 1u);
}

// A task created after every earlier task has finished can read what they
// shadowed. Here task 10 shadows version 1 and ends, task 3 is created
// (legal: nothing is unfinished and the GC floor is 0), and its store to
// the neighbouring slot runs a reclaim pass over the same shard. That pass
// must keep version 1: the floor is task 3, the oldest unfinished task,
// not 11, one past the newest task that ever ended.
std::pair<Ver, std::uint64_t> late_created_task_reads(VersionEngine& eng) {
  const OAddr a = eng.alloc(2);
  eng.store_version(a, 1, 111);
  eng.task_begin(10);
  eng.store_version(a, 10, 1010);
  eng.task_end(10);
  eng.task_created(3);
  eng.task_begin(3);
  eng.store_version(a + 8, 3, 33);
  Ver found = 0;
  const std::uint64_t d = eng.load_latest(a, 3, &found);
  eng.task_end(3);
  return {found, d};
}

TEST(ConcurrentStore, TaskCreatedAfterAllEndedKeepsItsVersions) {
  MachineConfig mcfg;
  mcfg.backend = BackendKind::kFunctional;
  mcfg.ostruct.gc_watermark = mcfg.ostruct.initial_pool_blocks + 1;
  Env env(mcfg);
  const auto serial = late_created_task_reads(env.engine());

  ConcurrencyConfig cfg;
  cfg.shards = 1;  // both slots in one shard, so the store reclaims `a`
  cfg.reclaim_threshold = 1;
  cfg.deadlock_timeout_ms = 200;
  ConcurrentVersionStore store(cfg);
  const auto concurrent = late_created_task_reads(store);

  EXPECT_EQ(serial, (std::pair<Ver, std::uint64_t>{1, 111}));
  EXPECT_EQ(concurrent, serial);
  EXPECT_EQ(store.stats().blocks_reclaimed, 0u);
}

// Block(5) would carry two shadow entries here (born shadowed mid-list,
// then shadowed again at the head once its newer neighbours left the
// chain) if a pass retired version 10, which task 12's store shadows,
// before 12 aborts. Only a committed version shadows, so 10 stays, the
// abort restores it and block(5) keeps a single entry. Both blocks retire
// once their ranges unpin, and no later pass trips over a stale entry.
TEST(ConcurrentStore, DuplicateShadowEntriesRetireTheBlockOnce) {
  ConcurrencyConfig cfg;
  cfg.shards = 1;
  cfg.reclaim_threshold = 1;
  cfg.gc_policy = GcPolicyKind::kBounded;
  cfg.track_aborts = true;
  ConcurrentVersionStore store(cfg);
  const OAddr a = store.alloc(2);
  const OAddr b = a + 8;
  using Chain = std::vector<std::pair<Ver, std::uint64_t>>;
  store.task_created(7);  // unfinished: pins the range [5, 10)
  store.store_version(a, 10, 100);
  store.store_version(a, 5, 50);  // mid-list: entry (5 shadowed by 10)
  store.task_begin(12);
  store.store_version(a, 12, 120);  // head: 10's entry waits for 12's end
  store.store_version(b, 1, 1);     // the pass keeps 5; 10 has no entry
  EXPECT_EQ(store.slot_versions(a), (Chain{{12, 120}, {10, 100}, {5, 50}}));
  store.abort_task(12);  // rolls back 12 (and b's 1): 10 is the head
  store.task_end(12);
  EXPECT_EQ(store.slot_versions(a), (Chain{{10, 100}, {5, 50}}));
  store.store_version(a, 15, 150);  // head: entry (10 shadowed by 15)
  EXPECT_EQ(store.stats().blocks_reclaimed, 0u);

  store.task_end(7);
  store.store_version(b, 2, 2);  // retires 5 and 10
  EXPECT_EQ(store.slot_versions(a), (Chain{{15, 150}}));
  EXPECT_EQ(store.stats().blocks_reclaimed, 2u);
  EXPECT_TRUE(store.check_integrity().ok) << store.check_integrity().detail;

  // The recycled blocks now hold new versions; a stale entry for one of
  // them would send a later pass after a version of `a`.
  for (Ver v = 3; v < 8; ++v) store.store_version(b, v, v);
  EXPECT_EQ(store.slot_versions(a), (Chain{{15, 150}}));
  EXPECT_EQ(store.stats().blocks_reclaimed, 6u);
  EXPECT_TRUE(store.check_integrity().ok) << store.check_integrity().detail;
}

// The same script with the entries' outcomes the other way round: block(5)
// is pinned by task 15 through its birth entry (5 shadowed by 20), and
// version 20, which task 30's aborted store shadowed, is restored rather
// than retired, so version 12 lands mid-list under it instead of shadowing
// block(5) a second time at the head. Everything retires once task 15
// ends.
TEST(ConcurrentStore, DuplicateShadowEntryKeptBeforeItsBlockRetires) {
  ConcurrencyConfig cfg;
  cfg.shards = 1;
  cfg.reclaim_threshold = 1;
  cfg.gc_policy = GcPolicyKind::kBounded;
  cfg.track_aborts = true;
  ConcurrentVersionStore store(cfg);
  const OAddr a = store.alloc(2);
  const OAddr b = a + 8;
  using Chain = std::vector<std::pair<Ver, std::uint64_t>>;
  store.task_created(15);  // unfinished throughout: pins [5, 20)
  store.store_version(a, 20, 200);
  store.store_version(a, 5, 50);  // mid-list: entry (5 shadowed by 20)
  store.task_begin(30);
  store.store_version(a, 30, 300);  // head: 20's entry waits for 30's end
  store.store_version(b, 1, 1);     // keeps 20: task 30 may abort
  store.abort_task(30);             // 20 is the head again
  store.task_end(30);
  store.store_version(a, 12, 120);  // mid-list: entry (12 shadowed by 20)
  EXPECT_EQ(store.slot_versions(a), (Chain{{20, 200}, {12, 120}, {5, 50}}));
  store.store_version(b, 2, 2);  // task 15 pins both entries
  EXPECT_EQ(store.slot_versions(a), (Chain{{20, 200}, {12, 120}, {5, 50}}));
  EXPECT_EQ(store.stats().blocks_reclaimed, 0u);
  store.task_end(15);
  for (Ver v = 3; v < 6; ++v) store.store_version(b, v, v);
  EXPECT_EQ(store.slot_versions(a), (Chain{{20, 200}}));
  EXPECT_EQ(store.stats().blocks_reclaimed, 4u);
  EXPECT_TRUE(store.check_integrity().ok) << store.check_integrity().detail;
}

// A mid-list insert under a head that an unfinished task stored still
// registers at once, so a block can carry two shadow entries: block(10) is
// born under version 30, which retires, and task 50's abort then makes it
// the head, which a host store of `head` shadows again. Whichever entry
// retires the block, the same pass must drop the other: a later eligible
// one by the in-pass mark, a pinned one by the purge after the loop.
// Otherwise, once the pin is gone, every pass on the shard looks for
// version 10 in a chain that no longer has it. `end_first` are the tasks
// (of 25 and 50) that end before that pass.
void duplicate_entry_from_an_aborted_head(Ver head,
                                          std::vector<TaskId> end_first) {
  ConcurrencyConfig cfg;
  cfg.shards = 1;
  cfg.reclaim_threshold = 1;
  cfg.gc_policy = GcPolicyKind::kBounded;
  cfg.track_aborts = true;
  ConcurrentVersionStore store(cfg);
  const OAddr a = store.alloc(2);
  const OAddr b = a + 8;
  using Chain = std::vector<std::pair<Ver, std::uint64_t>>;
  // Steps outside task 50, on a thread of their own (rethrows here).
  auto host = [](auto&& steps) { std::async(std::launch::async, steps).get(); };
  for (const TaskId t : {25, 40, 50}) store.task_created(t);
  store.task_begin(50);
  store.store_version(a, 50, 500);  // journaled, into the empty slot
  host([&] {
    store.store_version(a, 30, 300);  // mid-list: entry (30 shadowed by 50)
    store.store_version(a, 10, 100);  // mid-list: entry (10 shadowed by 30)
    store.task_end(40);
    store.store_version(b, 1, 1);  // retires 30; task 25 pins 10
  });
  EXPECT_EQ(store.stats().blocks_reclaimed, 1u);
  store.abort_task(50);  // 10 is the head
  host([&] {
    store.store_version(a, head, 7);  // head: entry (10 shadowed by head)
    for (const TaskId t : end_first) store.task_end(t);
    store.store_version(b, 2, 2);  // retires 10 through one entry
    for (const TaskId t : {25, 50}) {
      if (std::find(end_first.begin(), end_first.end(), t) ==
          end_first.end()) {
        store.task_end(t);
      }
    }
  });
  EXPECT_EQ(store.slot_versions(a), (Chain{{head, 7}})) << head;
  EXPECT_EQ(store.stats().blocks_reclaimed, 2u) << head;
  for (Ver v = 3; v < 8; ++v) {
    EXPECT_NO_THROW(store.store_version(b, v, v)) << head << " " << v;
  }
  EXPECT_EQ(store.slot_versions(a), (Chain{{head, 7}})) << head;
  EXPECT_EQ(store.stats().blocks_reclaimed, 7u) << head;  // and b's 1..5
  EXPECT_TRUE(store.check_integrity().ok) << store.check_integrity().detail;
}

TEST(ConcurrentStore, DuplicateEntryFromAnAbortedHeadRetiresOnce) {
  duplicate_entry_from_an_aborted_head(60, {25});      // 50 pins (10, 60)
  duplicate_entry_from_an_aborted_head(60, {25, 50});  // both eligible
  duplicate_entry_from_an_aborted_head(20, {});        // 25 pins (10, 30)
}

// Three threads create, begin and end tasks while their stores reclaim,
// under both GC rules (tools/run-sanitizers.sh runs this under TSan: the
// stripe locks, the published minima and the creation mutex). Ids are
// drawn and created under one harness lock, because the engine faults a
// task older than the oldest unfinished one; every other step races. Every
// load must return the newest version at or below its task id.
TEST(ConcurrentStore, LifecycleStressWithReclaims) {
  for (const GcPolicyKind policy : {GcPolicyKind::kPaper,
                                    GcPolicyKind::kBounded}) {
    ConcurrencyConfig cfg;
    cfg.shards = 4;
    cfg.reclaim_threshold = 8;
    cfg.gc_policy = policy;
    ConcurrentVersionStore store(cfg);
    constexpr std::uint64_t kSlots = 8;
    constexpr int kThreads = 3;
    constexpr TaskId kTasksPerThread = 4000;
    const OAddr base = store.alloc(kSlots);
    for (std::uint64_t s = 0; s < kSlots; ++s) {
      store.store_version(base + 8 * s, 1, data_for(1, s));
    }
    std::mutex id_mu;
    TaskId next_id = 2;
    std::atomic<std::uint64_t> bad{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
      threads.emplace_back([&] {
        try {
          for (TaskId i = 0; i < kTasksPerThread; ++i) {
            TaskId t;
            {
              std::lock_guard<std::mutex> g(id_mu);
              t = next_id++;
              // Half the tasks are created explicitly, half by TASK-BEGIN.
              if (t % 2 == 0) {
                store.task_created(t);
              } else {
                store.task_begin(t);
              }
            }
            if (t % 2 == 0) store.task_begin(t);
            const std::uint64_t s = t % kSlots;
            store.store_version(base + 8 * s, t, data_for(t, s));
            const std::uint64_t r = (t * 7) % kSlots;
            Ver found = 0;
            const std::uint64_t d =
                store.load_latest(base + 8 * r, t, &found);
            if (found > t || d != data_for(found, r)) {
              bad.fetch_add(1, std::memory_order_relaxed);
            }
            store.task_end(t);
          }
        } catch (const std::exception&) {
          bad.fetch_add(1000000, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(bad.load(), 0u) << to_string(policy);
    EXPECT_GT(store.stats().blocks_reclaimed, 0u) << to_string(policy);
    EXPECT_TRUE(store.check_integrity().ok)
        << store.check_integrity().detail;
    // Everything ended: one more store may reclaim every shadowed block.
    const TaskId last = 2 + kThreads * kTasksPerThread;
    store.task_created(last);
    store.task_begin(last);
    for (std::uint64_t s = 0; s < kSlots; ++s) {
      store.store_version(base + 8 * s, last, data_for(last, s));
      EXPECT_EQ(store.load_latest(base + 8 * s, last), data_for(last, s));
    }
    store.task_end(last);
  }
}

// A burst of creations (more than two staging batches, with a remainder
// still staged) is tracked exactly: the oldest of them pins the GC floor,
// ends from several threads find their tasks wherever they are, and the
// task-order faults still fire afterwards.
TEST(ConcurrentStore, TasksCreatedInBulkAreTracked) {
  ConcurrencyConfig cfg;
  cfg.shards = 1;
  cfg.reclaim_threshold = 1;
  ConcurrentVersionStore store(cfg);
  const OAddr a = store.alloc(1);
  store.store_version(a, 1, 10);
  constexpr TaskId kLast = 10001;
  for (TaskId t = 2; t <= kLast; ++t) store.task_created(t);
  store.store_version(a, kLast + 1, 20);
  store.store_version(a, kLast + 2, 30);  // task 2 pins version 1
  EXPECT_EQ(store.version_count(a), 3);
  EXPECT_EQ(store.stats().blocks_reclaimed, 0u);

  constexpr int kThreads = 3;
  std::vector<std::thread> threads;
  std::atomic<int> faults{0};
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&store, &faults, w] {
      for (TaskId t = kLast; t >= 2; --t) {
        if (t % kThreads != static_cast<TaskId>(w)) continue;
        try {
          store.task_end(t);
        } catch (const OFault&) {
          faults.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(faults.load(), 0);

  // Nothing is unfinished: the floor is kLast + 1, past version 1's
  // shadower, so the next pass retires it and raises the GC floor.
  store.store_version(a, kLast + 3, 40);
  EXPECT_EQ(store.stats().blocks_reclaimed, 1u);
  EXPECT_THROW(store.task_end(5), OFault);
  EXPECT_THROW(store.task_created(kLast - 1), OFault);
  store.task_created(kLast + 1);
  store.task_end(kLast + 1);
}

// The ISA misuse faults both engines share (core/fault.hpp): every case
// raised with the same kind and the same what() text on each engine —
// zero-slot and injected slot-table allocs, an address outside the
// versioned region, an unallocated slot, a conventional access, an
// injected deadlock, unlock of a missing and of a foreign version, a
// rename onto an existing version, a duplicate store, and a released slot.
std::vector<std::pair<FaultKind, std::string>> misuse_faults(
    VersionEngine& eng) {
  std::vector<std::pair<FaultKind, std::string>> got;
  auto fault = [&](auto&& op) {
    try {
      op();
      ADD_FAILURE() << "expected an OFault (case " << got.size() << ")";
    } catch (const OFault& f) {
      got.emplace_back(f.kind(), f.what());
    }
  };
  FaultInjector inj(FaultPlan::parse("slots@1,deadlock@1"));
  eng.attach_fault_injector(&inj);
  fault([&] { eng.alloc(0); });
  fault([&] { eng.alloc(3); });  // the first slot-table consultation
  const OAddr a = eng.alloc(1);
  fault([&] { eng.load_version(kOStructBase - 8, 1); });
  fault([&] { eng.load_version(a + 8, 1); });
  fault([&] { eng.check_conventional(a); });
  fault([&] { eng.load_version(a, 7); });  // blocks: the injected deadlock
  eng.store_version(a, 7, 1);
  fault([&] { eng.store_version(a, 7, 2); });
  fault([&] { eng.unlock_version(a, 8, 3); });
  fault([&] { eng.unlock_version(a, 7, 3); });  // never locked
  eng.lock_load_version(a, 7, /*locker=*/3);
  fault([&] { eng.unlock_version(a, 7, /*owner=*/4); });
  eng.store_version(a, 9, 3);
  fault([&] { eng.unlock_version(a, 7, 3, /*rename_to=*/9); });
  eng.unlock_version(a, 7, 3);
  EXPECT_FALSE(eng.lock_holder(a, 7).has_value());
  eng.release(a, 1);
  fault([&] { eng.load_version(a, 7); });
  EXPECT_FALSE(eng.is_versioned_addr(a));
  eng.attach_fault_injector(nullptr);
  return got;
}

// release() validates its whole range before it releases any slot. Slot 1
// is inside the slot table but unallocated, slot 2 is past its end: both
// ranges fault on slot 1 and leave slot 0 versioned with its version.
void release_checks_whole_range(VersionEngine& eng) {
  const OAddr a = eng.alloc(1);
  eng.store_version(a, 1, 11);
  eng.release(eng.alloc(1), 1);
  for (const std::size_t slots : {2, 3}) {
    try {
      eng.release(a, slots);
      ADD_FAILURE() << "release of " << slots << " slots did not fault";
    } catch (const OFault& f) {
      EXPECT_EQ(f.kind(), FaultKind::kVersionedAccessToUnversionedPage);
      EXPECT_NE(std::string(f.what()).find("slot 1 is not allocated"),
                std::string::npos)
          << f.what();
    }
    EXPECT_TRUE(eng.is_versioned_addr(a)) << slots;
    EXPECT_EQ(eng.peek_version(a, 1), std::optional<std::uint64_t>(11));
  }
  eng.release(a, 1);
  EXPECT_FALSE(eng.is_versioned_addr(a));
}

TEST(ReleaseRange, SerialEngineFaultsBeforeReleasingAny) {
  MachineConfig mcfg;
  mcfg.backend = BackendKind::kFunctional;
  Env env(mcfg);
  release_checks_whole_range(env.engine());
}

TEST(ReleaseRange, ConcurrentEngineFaultsBeforeReleasingAny) {
  ConcurrentVersionStore store;
  release_checks_whole_range(store);
  // The released slot went back to the free runs: the next alloc reuses it.
  EXPECT_EQ(store.alloc(1), kOStructBase);
}

TEST(ConcurrentStore, FaultParityWithSerialEngine) {
  MachineConfig mcfg;
  mcfg.backend = BackendKind::kFunctional;
  Env env(mcfg);
  const auto serial = misuse_faults(env.engine());

  ConcurrencyConfig cfg;
  cfg.deadlock_timeout_ms = 200;
  ConcurrentVersionStore store(cfg);
  const auto concurrent = misuse_faults(store);

  ASSERT_EQ(serial.size(), 12u);
  ASSERT_EQ(concurrent.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(concurrent[i].first, serial[i].first) << "case " << i;
    EXPECT_EQ(concurrent[i].second, serial[i].second) << "case " << i;
  }
  const std::vector<FaultKind> kinds = {
      FaultKind::kInvalidAddress,
      FaultKind::kResourceExhausted,
      FaultKind::kVersionedAccessToUnversionedPage,
      FaultKind::kVersionedAccessToUnversionedPage,
      FaultKind::kConventionalAccessToVersionedPage,
      FaultKind::kWouldBlock,
      FaultKind::kVersionAlreadyExists,
      FaultKind::kNotLockOwner,
      FaultKind::kNotLockOwner,
      FaultKind::kNotLockOwner,
      FaultKind::kRenameTargetExists,
      FaultKind::kVersionedAccessToUnversionedPage,
  };
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    EXPECT_EQ(serial[i].first, kinds[i]) << serial[i].second;
  }
  EXPECT_NE(serial[5].second.find("injected deadlock timeout: LOAD-VERSION"),
            std::string::npos)
      << serial[5].second;
}

}  // namespace
}  // namespace osim
