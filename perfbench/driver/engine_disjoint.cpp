// engine_disjoint: the concurrent engine on disjoint slot partitions.
//
// A seeded script of short tasks (tens of versioned ops each) runs through
// ConcurrentTaskPool over ConcurrentVersionStore, first on P workers, then
// the identical script on one worker. P is one per host thread but one:
// the spare thread absorbs the rest of the system, which on a fully
// loaded shared host made per-task latency swing between runs. Task t
// touches only partition t mod P (matching the pool's home-queue mapping),
// so no task depends on another thread's work and nothing blocks: what is
// measured is the engine's synchronisation core (shard locks, seqlock
// walk, epoch pin, thread registration, the task tracker) and pool
// dispatch. Reclamation stays at the engine default.
//
// Every load is checked against the version it returned, and the final
// newest version and data of every slot against the script's reference.
//
// The traced run adds three fixed slices: a lifecycle slice (the harness
// issues task_created/begin/end itself), a shared slice (lock waits,
// LOCK-LOAD/UNLOCK and reclamation, which the disjoint script never
// reaches) and a checker slice (the online protocol checker attached).
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "analysis/checker.hpp"
#include "common.hpp"
#include "core/concurrent_store.hpp"
#include "runtime/concurrent.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using osim::ConcurrentTaskPool;
using osim::ConcurrentVersionStore;
using osim::OAddr;
using osim::TaskId;
using osim::Ver;

constexpr std::uint32_t kSlotsPerPart = 256;
constexpr int kOpsPerTask = 32;
constexpr int kStorePct = 10;
constexpr std::uint32_t kTasks = 120000;        ///< untraced reps
constexpr std::uint32_t kTracedTasks = 15000;   ///< traced reps and slices
constexpr int kTracedReps = 4;  ///< bounds the spans a traced run keeps
constexpr std::uint32_t kCheckedTasks = 5000;   ///< checker slice
constexpr TaskId kFirstTask = 2;                ///< version 1 = setup store

/// Slot data for a version: every load validates against this, so a torn
/// or misattributed read fails the check.
std::uint64_t slot_data(Ver v, std::uint64_t slot) {
  return (v * 0x9E3779B97F4A7C15ull) ^ (slot * 0xD1B54A32D192ED03ull) ^
         0xA5A5A5A5A5A5A5A5ull;
}

// Op encoding: slot << 2 | kStore | kOwn (a load of a slot this task
// already stored, which must return the task's own version).
constexpr std::uint32_t kStore = 1, kOwn = 2;

struct Script {
  int parts = 1;
  std::uint32_t tasks = 0;
  std::vector<std::uint32_t> ops;  ///< kOpsPerTask per task
  std::vector<Ver> newest;         ///< reference final version per slot

  std::uint32_t slots() const { return static_cast<std::uint32_t>(parts) * kSlotsPerPart; }
  std::uint64_t total_ops() const { return ops.size(); }
};

Script make_script(std::uint64_t seed, int parts, std::uint32_t tasks) {
  Script sc;
  sc.parts = parts;
  sc.tasks = tasks;
  sc.ops.reserve(static_cast<std::size_t>(tasks) * kOpsPerTask);
  sc.newest.assign(sc.slots(), 1);
  std::uint64_t s = seed ^ 0xD15701A7ull;
  std::uint32_t stored[kOpsPerTask];
  for (std::uint32_t i = 0; i < tasks; ++i) {
    const TaskId tid = kFirstTask + i;
    const std::uint32_t base =
        static_cast<std::uint32_t>(tid % static_cast<TaskId>(parts)) *
        kSlotsPerPart;
    int nstored = 0;
    for (int k = 0; k < kOpsPerTask; ++k) {
      const std::uint32_t slot =
          base + static_cast<std::uint32_t>(splitmix64(s) % kSlotsPerPart);
      bool own = false;
      for (int j = 0; j < nstored; ++j) own = own || stored[j] == slot;
      const bool store =
          !own && static_cast<int>(splitmix64(s) % 100) < kStorePct;
      if (store) {
        stored[nstored++] = slot;
        sc.newest[slot] = tid;  // tasks are generated in ascending id order
      }
      sc.ops.push_back(slot << 2 | (store ? kStore : 0) | (own ? kOwn : 0));
    }
  }
  return sc;
}

/// Span names of the traced runs.
struct Names {
  std::uint16_t rep, pool_create, create_task, pool_run, task, load, store,
      created, begin, end, lock, unlock;
  explicit Names(SpanRecorder& r)
      : rep(r.name("engine.rep")),
        pool_create(r.name("runtime.pool_create")),
        create_task(r.name("runtime.create_task")),
        pool_run(r.name("runtime.pool_run")),
        task(r.name("engine.task")),
        load(r.name("core.concurrent.load_latest")),
        store(r.name("core.concurrent.store_version")),
        created(r.name("core.concurrent.task_created")),
        begin(r.name("core.concurrent.task_begin")),
        end(r.name("core.concurrent.task_end")),
        lock(r.name("core.concurrent.lock_load")),
        unlock(r.name("core.concurrent.unlock")) {}
};

/// The shared state of one run of the script on one store.
struct Run {
  Run(const Script& s, ConcurrentVersionStore& st) : sc(s), store(st) {}
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  const Script& sc;
  ConcurrentVersionStore& store;
  OAddr base = 0;
  /// Per-task latencies, one buffer per executing thread: neighbouring
  /// tasks run on different workers, so one shared array would add false
  /// sharing that the engine itself does not have.
  std::mutex lat_mu;
  std::vector<std::unique_ptr<std::vector<std::int64_t>>> lat_bufs;
  const std::uint64_t serial = next_serial();
  std::atomic<std::uint64_t> bad{0};
  SpanRecorder* rec = nullptr;
  const Names* nm = nullptr;

  /// Task body: the task's ops, each load checked. Spans (traced runs)
  /// wrap every engine call.
  template <bool kTraced>
  void body(TaskId tid, SpanId parent) {
    const std::uint32_t i = static_cast<std::uint32_t>(tid - kFirstTask);
    const std::int64_t t0 = now_ns();
    SpanId task_span = 0;
    if constexpr (kTraced) task_span = rec->open(nm->task, i, parent);
    const std::uint32_t* op = &sc.ops[static_cast<std::size_t>(i) * kOpsPerTask];
    for (int k = 0; k < kOpsPerTask; ++k) {
      const std::uint64_t slot = op[k] >> 2;
      const OAddr a = base + 8 * slot;
      if ((op[k] & kStore) != 0) {
        if constexpr (kTraced) {
          SpanRecorder::Scope sp(rec, nm->store, i);
          store.store_version(a, tid, slot_data(tid, slot));
        } else {
          store.store_version(a, tid, slot_data(tid, slot));
        }
        continue;
      }
      Ver found = 0;
      std::uint64_t d;
      if constexpr (kTraced) {
        SpanRecorder::Scope sp(rec, nm->load, i);
        d = store.load_latest(a, tid, &found);
      } else {
        d = store.load_latest(a, tid, &found);
      }
      if (d != slot_data(found, slot) || found > tid ||
          ((op[k] & kOwn) != 0 && found != tid)) {
        bad.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if constexpr (kTraced) rec->close(task_span);
    my_lat().push_back(now_ns() - t0);
  }

  static std::uint64_t next_serial() {
    static std::atomic<std::uint64_t> n{1};
    return n.fetch_add(1);
  }

  std::vector<std::int64_t>& my_lat() {
    thread_local std::uint64_t owner = 0;
    thread_local std::vector<std::int64_t>* buf = nullptr;
    if (owner != serial) {
      std::lock_guard<std::mutex> g(lat_mu);
      lat_bufs.push_back(std::make_unique<std::vector<std::int64_t>>());
      buf = lat_bufs.back().get();
      buf->reserve(sc.tasks);
      owner = serial;
    }
    return *buf;
  }

  std::vector<std::int64_t> latencies() {
    std::vector<std::int64_t> all;
    for (const auto& b : lat_bufs) all.insert(all.end(), b->begin(), b->end());
    return all;
  }

  /// Allocate the slots and store version 1 everywhere.
  void setup() {
    base = store.alloc(sc.slots());
    for (std::uint64_t s = 0; s < sc.slots(); ++s) {
      store.store_version(base + 8 * s, 1, slot_data(1, s));
    }
  }

  /// Compare the final newest version and data of every slot with the
  /// script's reference, and fold the per-load checks into `r`.
  void verify(Result& r, const char* what) {
    r.attempted += sc.total_ops();
    const std::uint64_t nbad = bad.load();
    if (nbad != 0) {
      r.failed += nbad - 1;
      r.fail(std::string(what) + ": " + std::to_string(nbad) +
             " loads returned data that does not match their version");
    }
    std::uint64_t wrong = 0;
    for (std::uint64_t s = 0; s < sc.slots(); ++s) {
      const OAddr a = base + 8 * s;
      const auto v = store.newest_version(a);
      const auto d = v ? store.peek_version(a, *v) : std::nullopt;
      if (!v || *v != sc.newest[s] || !d || *d != slot_data(*v, s)) ++wrong;
    }
    r.attempted += sc.slots();
    if (wrong != 0) {
      r.failed += wrong - 1;
      r.fail(std::string(what) + ": " + std::to_string(wrong) +
             " slots differ from the reference final state");
    }
  }
};

/// One repetition: build the engine and pool, run the script, verify.
struct Rep {
  double setup_s = 0, create_s = 0, run_s = 0;
  double lat_p50_us = 0, lat_p99_us = 0;
  ConcurrentVersionStore::Stats stats;
};

/// Nothing when the pool run faulted (the fault is counted in `r`).
template <bool kTraced>
std::optional<Rep> run_rep(std::uint64_t seed, int parts, std::uint32_t tasks,
                           int workers, Result& r, SpanRecorder* rec,
                           const Names* nm) {
  Rep out;
  const std::int64_t t0 = now_ns();
  const Script sc = make_script(seed, parts, tasks);
  ConcurrentVersionStore store;
  Run run(sc, store);
  run.rec = rec;
  run.nm = nm;
  run.setup();
  ConcurrentTaskPool pool(store, workers);
  const std::int64_t t1 = now_ns();
  SpanId pool_run = 0;
  {
    SpanId create = 0;
    if constexpr (kTraced) create = rec->open(nm->pool_create, 0);
    for (std::uint32_t i = 0; i < tasks; ++i) {
      const TaskId tid = kFirstTask + i;
      if constexpr (kTraced) {
        SpanRecorder::Scope sp(rec, nm->create_task, i);
        pool.create_task(tid, [&run, &pool_run](TaskId t) {
          run.body<true>(t, pool_run);
        });
      } else {
        pool.create_task(tid, [&run](TaskId t) { run.body<false>(t, 0); });
      }
    }
    if constexpr (kTraced) rec->close(create);
  }
  const std::int64_t t2 = now_ns();
  out.create_s = static_cast<double>(t2 - t1) * 1e-9;
  out.setup_s = static_cast<double>(t2 - t0) * 1e-9;
  try {
    if constexpr (kTraced) pool_run = rec->open(nm->pool_run, 0);
    out.run_s = pool.run();
    if constexpr (kTraced) rec->close(pool_run);
  } catch (const std::exception& e) {
    if constexpr (kTraced) rec->close(pool_run);
    r.attempted += sc.total_ops();
    r.fail(std::string("engine_disjoint pool run: ") + e.what());
    return std::nullopt;
  }
  run.verify(r, workers == 1 ? "t1" : "tN");
  out.stats = store.stats();
  std::vector<std::int64_t> lat = run.latencies();
  out.lat_p50_us = quantile(lat, 0.5) * 1e-3;
  out.lat_p99_us = quantile(lat, 0.99) * 1e-3;
  return out;
}

struct Phase {
  std::vector<double> setup_s, ops_n, ops_1, p50, p99;
  std::vector<double> seq_retries_per_kload, allocated;
  int reps = 0;
};

/// Record one P-worker repetition, and its one-worker twin when given.
void add_rep(Phase& ph, std::uint32_t tasks, const Rep& n, const Rep* one) {
  const double ops = static_cast<double>(tasks) * kOpsPerTask;
  ph.setup_s.push_back(n.setup_s);
  ph.ops_n.push_back(ops / n.run_s);
  ph.p50.push_back(n.lat_p50_us);
  ph.p99.push_back(n.lat_p99_us);
  if (one != nullptr) {
    ph.setup_s.push_back(one->setup_s);
    ph.ops_1.push_back(ops / one->run_s);
  }
  const auto& st = n.stats;
  ph.seq_retries_per_kload.push_back(
      st.loads == 0 ? 0
                    : 1000.0 * static_cast<double>(st.seq_retries) /
                          static_cast<double>(st.loads));
  ph.allocated.push_back(static_cast<double>(st.blocks_allocated));
  ++ph.reps;
}

/// An untraced P-worker repetition and its one-worker twin, recorded when
/// both ran.
void run_pair(const Options& opt, int parts, std::uint32_t tasks, Phase& ph,
              Result& r) {
  const auto n =
      run_rep<false>(opt.seed, parts, tasks, parts, r, nullptr, nullptr);
  const auto one =
      run_rep<false>(opt.seed, parts, tasks, 1, r, nullptr, nullptr);
  if (n && one) add_rep(ph, tasks, *n, &*one);
}

void set_end_to_end(const Phase& ph, Result& r) {
  r.set("setup_s", median(ph.setup_s), "s");
  r.set("throughput_per_s", median(ph.ops_n), "1/s");
  r.set("lat_p50_us", median(ph.p50), "us");
  r.set("lat_p99_us", median(ph.p99), "us");
  r.set("peak_rss_mib", peak_rss_mib(), "MiB");
}

/// Task lifecycle slice: the harness itself creates, begins and ends each
/// task (the pool does this internally, out of a span's reach), with one
/// thread per partition running its partition's tasks in order.
void lifecycle_slice(const Options& opt, int parts, SpanRecorder& rec,
                     const Names& nm, Result& r) {
  const Script sc = make_script(opt.seed, parts, kTracedTasks);
  ConcurrentVersionStore store;
  Run run(sc, store);
  run.rec = &rec;
  run.nm = &nm;
  run.setup();
  for (std::uint32_t i = 0; i < sc.tasks; ++i) {
    SpanRecorder::Scope sp(&rec, nm.created, i);
    store.task_created(kFirstTask + i);
  }
  std::vector<std::thread> threads;
  std::atomic<bool> faulted{false};
  for (int w = 0; w < parts; ++w) {
    threads.emplace_back([&, w] {
      try {
        for (TaskId tid = kFirstTask; tid < kFirstTask + sc.tasks; ++tid) {
          if (tid % static_cast<TaskId>(parts) != static_cast<TaskId>(w)) {
            continue;
          }
          const auto i = static_cast<std::uint32_t>(tid - kFirstTask);
          {
            SpanRecorder::Scope sp(&rec, nm.begin, i);
            store.task_begin(tid);
          }
          run.body<true>(tid, 0);
          SpanRecorder::Scope sp(&rec, nm.end, i);
          store.task_end(tid);
        }
      } catch (const std::exception&) {
        faulted = true;
      }
    });
  }
  for (auto& t : threads) t.join();
  if (faulted) {
    r.attempted += sc.total_ops();
    r.fail("engine_disjoint lifecycle slice faulted");
    return;
  }
  run.verify(r, "lifecycle slice");
}

// ---- Shared slice ----
//
// The disjoint script never blocks and, at the engine's default threshold,
// never reclaims. This fixed slice of the traced run covers both: P
// threads run closed-loop tasks on a few shared slots, with a small
// reclaim threshold. Each thread draws its next task id and calls
// task_created under one harness lock, because the engine faults a task
// older than the oldest unfinished one. A task does kSharedOps ops on
// distinct slots: LOAD-LATEST, STORE-VERSION, or a CAS (LOCK-LOAD-LATEST,
// then UNLOCK renamed to the task's id). A task holds at most one lock
// and releases it before its next op, so every wait ends. Every
// kSessionLen-th id is a snapshot session: a task left unfinished until
// the next session opens. It holds the reclamation floor back, so shadow
// lists pass the threshold and stores rescan them (finding (a) in
// perfbench/README.md).

constexpr std::uint32_t kSharedSlots = 64;
constexpr int kSharedOps = 8;
constexpr std::uint32_t kSharedTasks = 20000;  ///< ids, sessions included
constexpr std::uint32_t kSessionLen = 1024;
constexpr std::size_t kReclaimThreshold = 32;  ///< shadowed blocks per shard
constexpr int kSharedReps = 3;
constexpr int kLoadPct = 60, kSharedStorePct = 20;  ///< the rest are CAS

enum SharedKind : std::uint32_t { kLoadOp, kStoreOp, kCasOp };

/// A shared slot's value encodes the version that stored it and the slot;
/// a CAS renames a value, so its origin is older than the version found.
constexpr std::uint64_t kMask = 0x5DEECE66Dull << 16;
std::uint64_t encode(Ver origin, std::uint32_t slot) {
  return ((origin << 16) | slot) ^ kMask;
}

bool is_session(TaskId t) { return (t - kFirstTask) % kSessionLen == 0; }

struct SharedScript {
  std::vector<std::uint32_t> ops;  ///< slot << 2 | kind, kSharedOps per id
  std::vector<Ver> newest;         ///< reference final version per slot

  /// What task `t` did to `slot` (a session or an untouched slot: a load).
  SharedKind kind(TaskId t, std::uint32_t slot) const {
    const std::uint32_t* op =
        &ops[static_cast<std::size_t>(t - kFirstTask) * kSharedOps];
    for (int k = 0; k < kSharedOps; ++k) {
      if (op[k] >> 2 == slot) return static_cast<SharedKind>(op[k] & 3);
    }
    return kLoadOp;
  }

  /// A value read at version `found` of `slot` must encode the slot and an
  /// origin: `found` itself for a store (or the setup), older for a CAS.
  bool value_ok(std::uint64_t d, std::uint32_t slot, Ver found) const {
    const std::uint64_t x = d ^ kMask;
    const Ver origin = x >> 16;
    if ((x & 0xFFFF) != slot || origin == 0 || origin > found) return false;
    if (found == 1) return true;
    if (found - kFirstTask >= kSharedTasks) return false;
    switch (kind(found, slot)) {
      case kStoreOp: return origin == found;
      case kCasOp: return origin < found;
      default: return false;
    }
  }
};

SharedScript make_shared_script(std::uint64_t seed) {
  SharedScript sc;
  sc.ops.assign(static_cast<std::size_t>(kSharedTasks) * kSharedOps, 0);
  sc.newest.assign(kSharedSlots, 1);
  std::uint64_t s = seed ^ 0x5A4EDull;
  for (std::uint32_t i = 0; i < kSharedTasks; ++i) {
    const TaskId tid = kFirstTask + i;
    if (is_session(tid)) continue;
    std::uint32_t* op = &sc.ops[static_cast<std::size_t>(i) * kSharedOps];
    for (int k = 0; k < kSharedOps; ++k) {
      std::uint32_t slot;
      bool dup;
      do {
        slot = static_cast<std::uint32_t>(splitmix64(s) % kSharedSlots);
        dup = false;
        for (int j = 0; j < k; ++j) dup = dup || op[j] >> 2 == slot;
      } while (dup);
      const int pick = static_cast<int>(splitmix64(s) % 100);
      const SharedKind kind = pick < kLoadPct ? kLoadOp
                              : pick < kLoadPct + kSharedStorePct ? kStoreOp
                                                                  : kCasOp;
      if (kind != kLoadOp) sc.newest[slot] = tid;  // ascending ids
      op[k] = slot << 2 | kind;
    }
  }
  return sc;
}

/// One run of the shared script on a fresh engine; the engine's counters
/// when every check passed.
std::optional<ConcurrentVersionStore::Stats> shared_rep(
    const SharedScript& sc, int threads, SpanRecorder& rec, const Names& nm,
    Result& r) {
  osim::ConcurrencyConfig cfg;
  cfg.reclaim_threshold = kReclaimThreshold;
  ConcurrentVersionStore store(cfg);
  const OAddr base = store.alloc(kSharedSlots);
  for (std::uint32_t k = 0; k < kSharedSlots; ++k) {
    store.store_version(base + 8 * k, 1, encode(1, k));
  }
  std::mutex ticket_mu;
  TaskId next = kFirstTask, session = 0;
  /// The next task id to run, 0 when the script is done.
  const auto draw = [&]() -> TaskId {
    std::lock_guard<std::mutex> g(ticket_mu);
    while (next < kFirstTask + kSharedTasks) {
      const TaskId t = next++;
      store.task_created(t);
      if (!is_session(t)) return t;
      if (session != 0) store.task_end(session);
      session = t;
    }
    return 0;
  };
  std::atomic<std::uint64_t> bad{0};
  std::atomic<bool> faulted{false};
  std::vector<std::thread> pool;
  for (int w = 0; w < threads; ++w) {
    pool.emplace_back([&] {
      try {
        for (TaskId t; (t = draw()) != 0;) {
          store.task_begin(t);
          const std::uint32_t* op =
              &sc.ops[static_cast<std::size_t>(t - kFirstTask) * kSharedOps];
          for (int k = 0; k < kSharedOps; ++k) {
            const std::uint32_t slot = op[k] >> 2;
            const OAddr a = base + 8 * slot;
            const auto req = static_cast<std::uint32_t>(t);
            Ver found = 0;
            std::uint64_t d = 0;
            switch (static_cast<SharedKind>(op[k] & 3)) {
              case kStoreOp:
                store.store_version(a, t, encode(t, slot));
                continue;
              case kLoadOp:
                d = store.load_latest(a, t, &found);
                break;
              case kCasOp: {
                {
                  SpanRecorder::Scope sp(&rec, nm.lock, req);
                  d = store.lock_load_latest(a, t, t, &found);
                }
                SpanRecorder::Scope sp(&rec, nm.unlock, req);
                store.unlock_version(a, found, t, t);
                break;
              }
            }
            if (found > t || !sc.value_ok(d, slot, found)) {
              bad.fetch_add(1, std::memory_order_relaxed);
            }
          }
          store.task_end(t);
        }
      } catch (const std::exception& e) {
        if (!faulted.exchange(true)) {
          r.fail(std::string("shared slice: ") + e.what());
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  r.attempted += static_cast<std::uint64_t>(kSharedTasks) * kSharedOps;
  if (faulted) return std::nullopt;
  store.task_end(session);
  const std::uint64_t nbad = bad.load();
  if (nbad != 0) {
    r.failed += nbad - 1;
    r.fail("shared slice: " + std::to_string(nbad) +
           " loads returned data that does not match their version");
  }
  std::uint64_t wrong = 0;
  for (std::uint32_t k = 0; k < kSharedSlots; ++k) {
    const OAddr a = base + 8 * k;
    const auto v = store.newest_version(a);
    const auto d = v ? store.peek_version(a, *v) : std::nullopt;
    if (!v || *v != sc.newest[k] || !d || !sc.value_ok(*d, k, *v)) ++wrong;
  }
  r.attempted += kSharedSlots;
  if (wrong != 0) {
    r.failed += wrong - 1;
    r.fail("shared slice: " + std::to_string(wrong) +
           " slots differ from the reference final state");
  }
  if (nbad != 0 || wrong != 0) return std::nullopt;
  return store.stats();
}

/// The shared slice's engine counters, median over its repetitions.
void shared_slice(const Options& opt, int threads, SpanRecorder& rec,
                  const Names& nm, Result& r) {
  const SharedScript sc = make_shared_script(opt.seed);
  std::vector<double> spins, parks, reclaimed;
  for (int i = 0; i < kSharedReps; ++i) {
    const auto st = shared_rep(sc, threads, rec, nm, r);
    if (!st) continue;
    spins.push_back(static_cast<double>(st->spin_waits));
    parks.push_back(static_cast<double>(st->parks));
    reclaimed.push_back(
        st->blocks_allocated == 0
            ? 0
            : static_cast<double>(st->blocks_reclaimed) /
                  static_cast<double>(st->blocks_allocated));
  }
  r.set("core.concurrent.spin_waits", median(spins), "count");
  r.set("core.concurrent.parks", median(parks), "count");
  r.set("core.concurrent.blocks_reclaimed_ratio", median(reclaimed), "ratio");
}


/// Observability cost: a fixed slice on one worker with the online
/// protocol checker attached through the engine tracer.
void checker_slice(const Options& opt, int parts, Result& r) {
  const Script sc = make_script(opt.seed, parts, kCheckedTasks);
  ConcurrentVersionStore store;
  osim::telemetry::Tracer tracer;
  auto sink = std::make_unique<osim::analysis::CheckerSink>(2);
  osim::analysis::CheckerSink* checker = sink.get();
  tracer.add_sink(std::move(sink));
  store.attach_tracer(&tracer);
  Run run(sc, store);
  run.setup();
  ConcurrentTaskPool pool(store, 1);
  for (std::uint32_t i = 0; i < sc.tasks; ++i) {
    pool.create_task(kFirstTask + i,
                     [&run](TaskId t) { run.body<false>(t, 0); });
  }
  double secs = 0;
  try {
    secs = pool.run();
  } catch (const std::exception& e) {
    r.attempted += sc.total_ops();
    r.fail(std::string("checker slice: ") + e.what());
    return;
  }
  run.verify(r, "checker slice");
  checker->checker().finish();
  const std::uint64_t findings = checker->checker().total_findings();
  r.attempted += 1;
  if (findings != 0) {
    r.fail("checker slice: " + std::to_string(findings) +
           " protocol findings");
  }
  r.set("analysis.checked_ops_per_s",
        static_cast<double>(sc.total_ops()) / secs, "1/s");
  r.set("analysis.findings", static_cast<double>(findings), "count");
}

}  // namespace

void run_engine_disjoint(const Options& opt, Result& r) {
  const int parts = std::max(1, host_threads() - 1);
  if (!opt.trace) {
    Phase ph;
    const std::int64_t start = now_ns();
    for (int rep = 0; rep < 2 || seconds_since(start) < opt.seconds; ++rep) {
      run_pair(opt, parts, kTasks, ph, r);
    }
    set_end_to_end(ph, r);
    std::printf("engine_disjoint: %d reps, %d partitions x %u slots, %u tasks "
                "x %d ops; ops_per_s %.4g (t%d), ops_per_s_1t %.4g, "
                "lat samples %u per rep\n",
                ph.reps, parts, kSlotsPerPart, kTasks, kOpsPerTask,
                median(ph.ops_n), parts, median(ph.ops_1), kTasks);
    std::printf("per rep: ops_per_s");
    for (double v : ph.ops_n) std::printf(" %.4g", v);
    std::printf("; lat_p50_us");
    for (double v : ph.p50) std::printf(" %.3g", v);
    std::printf("; lat_p99_us");
    for (double v : ph.p99) std::printf(" %.3g", v);
    std::printf("\n");
    return;
  }
  // Traced run: untraced pairs and traced repetitions alternate (so a
  // drift in host speed does not read as tracing overhead), all at the
  // traced size, so the overhead compares equal work.
  SpanRecorder rec(std::size_t{4} << 20);
  const Names nm(rec);
  Phase base, tr;
  const std::int64_t start = now_ns();
  for (int rep = 0;
       rep < 2 || (rep < kTracedReps && seconds_since(start) < opt.seconds);
       ++rep) {
    run_pair(opt, parts, kTracedTasks, base, r);
    SpanRecorder::Scope sp(&rec, nm.rep, static_cast<std::uint32_t>(rep));
    const auto traced =
        run_rep<true>(opt.seed, parts, kTracedTasks, parts, r, &rec, &nm);
    if (traced) add_rep(tr, kTracedTasks, *traced, nullptr);
  }
  Result untraced, traced;
  set_end_to_end(base, untraced);
  set_end_to_end(tr, traced);
  // Engine counters and scaling at the untraced run's size, for the rest
  // of the run's time.
  Phase full;
  for (int rep = 0; rep < 2 || seconds_since(start) < opt.seconds; ++rep) {
    run_pair(opt, parts, kTasks, full, r);
  }
  lifecycle_slice(opt, parts, rec, nm, r);
  shared_slice(opt, parts, rec, nm, r);
  checker_slice(opt, parts, r);

  const double reps = std::max(1, tr.reps);
  const SpanStats run_st = rec.stats("runtime.pool_run");
  r.set("runtime.pool_run_s", run_st.total_s / reps, "s");
  r.set("runtime.pool_dispatch_s", run_st.self_s / reps, "s");
  r.set("runtime.pool_create_s", rec.stats("runtime.pool_create").total_s / reps,
        "s");
  for (const char* op : {"task_created", "task_begin", "task_end",
                         "load_latest", "store_version", "lock_load",
                         "unlock"}) {
    const std::string span = std::string("core.concurrent.") + op;
    const SpanStats st = rec.stats(span);
    r.set(span + "_ns.p50", st.p50_ns, "ns");
    r.set(span + "_ns.p99", st.p99_ns, "ns");
  }
  r.set("core.concurrent.seq_retries_per_kload",
        median(full.seq_retries_per_kload), "count");
  r.set("core.concurrent.blocks_allocated", median(full.allocated), "count");
  const double one = median(full.ops_1);
  r.set("core.concurrent.ops_per_s_1t", one, "1/s");
  r.set("core.concurrent.scaling", one == 0 ? 0 : median(full.ops_n) / one,
        "ratio");
  set_trace_overhead(untraced, traced, rec.bytes(), r);
  finish_trace(rec, opt, r);
}

}  // namespace perfbench
