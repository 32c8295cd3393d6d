// Host-side micro-benchmarks (google-benchmark) of the simulator substrate
// and O-structure primitives: fiber switches, cache probes, hierarchy
// accesses, version-list operations, version-block carving, compressed-line
// codec, complete versioned operations and Env construction. These measure
// *simulator* throughput (host ns/op), which bounds how much simulated work
// the figure benches can afford. The ConcurrentVersionStore benches measure
// the host engine's own layers: the task lifecycle a pool worker runs per
// task, and one uncontended LOAD-LATEST.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "core/compressed_line.hpp"
#include "core/concurrent_store.hpp"
#include "core/ostructure_manager.hpp"
#include "core/version_list.hpp"
#include "runtime/env.hpp"
#include "sim/cache.hpp"
#include "sim/fiber.hpp"
#include "sim/memory_system.hpp"

namespace osim {
namespace {

std::uint64_t minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

void BM_FiberSwitch(benchmark::State& state) {
  bool stop = false;
  Fiber f([&stop] {
    while (!stop) Fiber::current()->yield();
  });
  for (auto _ : state) f.resume();
  stop = true;
  f.resume();  // let the fiber run to completion
  state.SetItemsProcessed(state.iterations() * 2);  // two switches per resume
}

void BM_CacheHit(benchmark::State& state) {
  Cache c(CacheConfig{32 * 1024, 8, kLineBytes, 4});
  c.fill(0x1000, false);
  for (auto _ : state) benchmark::DoNotOptimize(c.access(0x1000, false));
}

void BM_CacheMissFill(benchmark::State& state) {
  Cache c(CacheConfig{32 * 1024, 8, kLineBytes, 4});
  Addr a = 0;
  for (auto _ : state) {
    c.access(a, false);
    c.fill(a, false);
    a += kLineBytes;
  }
}

void BM_MemorySystemAccess(benchmark::State& state) {
  MachineConfig cfg;
  cfg.num_cores = 4;
  telemetry::MetricRegistry reg(4);
  MemorySystem ms(cfg, reg);
  Addr a = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ms.access(0, a, AccessType::kRead));
    a = (a + kLineBytes) & 0xFFFFFF;
  }
}

void BM_VersionListInsert(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    BlockPool pool(static_cast<std::size_t>(len) + 8);
    BlockIndex root = kNullBlock;
    state.ResumeTiming();
    for (int v = 1; v <= len; ++v) {
      const BlockIndex b = pool.alloc();
      pool[b].version = static_cast<Ver>(v);
      list_insert(pool, &root, b, /*sorted=*/true);
    }
  }
  state.SetItemsProcessed(state.iterations() * len);
}

void BM_VersionListFindLatest(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  BlockPool pool(static_cast<std::size_t>(len) + 8);
  BlockIndex root = kNullBlock;
  for (int v = 1; v <= len; ++v) {
    const BlockIndex b = pool.alloc();
    pool[b].version = static_cast<Ver>(v);
    list_insert(pool, &root, b, true);
  }
  Ver cap = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_latest(pool, root, cap, true));
    cap = cap % len + 1;
  }
}

// Carving: a fresh pool of range(0) blocks handed out by alloc() until it
// is empty, then unmapped. Every block is constructed on its first alloc(),
// so this includes the first touch of each page of the pool;
// minflt_per_block reports those page faults.
void BM_BlockPoolCarve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::uint64_t faults0 = minor_faults();
  for (auto _ : state) {
    BlockPool pool(n);
    for (std::size_t i = 0; i < n; ++i) benchmark::DoNotOptimize(pool.alloc());
  }
  const auto blocks = static_cast<double>(state.iterations()) *
                      static_cast<double>(n);
  state.counters["minflt_per_block"] =
      static_cast<double>(minor_faults() - faults0) / blocks;
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// Env construction: the setup every figure-bench cell pays before it
// simulates anything. The default 2^20-block version pool is reserved, not
// carved, so this is the machine, caches and registry.
void BM_EnvConstruct(benchmark::State& state, BackendKind backend) {
  MachineConfig cfg;
  cfg.backend = backend;
  cfg.num_cores = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Env env(cfg);
    benchmark::DoNotOptimize(&env);
  }
}

void BM_CompressedInstallFind(benchmark::State& state) {
  CompressedLine cl;
  Ver v = 100;
  for (auto _ : state) {
    CompressedLine::Entry e;
    e.version = 100 + (v % CompressedLine::kEntries);
    cl.install(e);
    benchmark::DoNotOptimize(cl.find_exact(e.version));
    ++v;
  }
}

void BM_VersionedStoreLoad(benchmark::State& state) {
  MachineConfig cfg;
  cfg.num_cores = 1;
  Machine m(cfg);
  OStructureManager osm(m);
  VersionStore& vs = osm.store();
  OAddr a = vs.alloc();
  std::uint64_t iters = 0;
  m.spawn(0, [&] {
    Ver v = 1;
    for (auto _ : state) {
      vs.store_version(a, v, v);
      benchmark::DoNotOptimize(vs.load_version(a, v));
      ++v;
      ++iters;
      if (v == 1024) {
        // Recycle the slot so per-iteration cost stays O(1) however many
        // iterations the harness schedules.
        vs.release(a);
        a = vs.alloc();
        v = 1;
      }
    }
  });
  m.run();
  state.SetItemsProcessed(static_cast<std::int64_t>(iters) * 2);
}

void BM_VersionedDirectHit(benchmark::State& state) {
  MachineConfig cfg;
  cfg.num_cores = 1;
  Machine m(cfg);
  OStructureManager osm(m);
  VersionStore& vs = osm.store();
  const OAddr a = vs.alloc();
  m.spawn(0, [&] {
    vs.store_version(a, 1, 7);
    vs.load_version(a, 1);  // warm the compressed line
    for (auto _ : state) benchmark::DoNotOptimize(vs.load_version(a, 1));
  });
  m.run();
}

// TASK-BEGIN + TASK-END of an already-created task, the per-task lifecycle
// cost of a pool worker (the pool creates every task before it runs). Like
// the pool's home queues, thread w of n runs the ids congruent to w mod n.
// The ids come in rounds of kRound per thread; between rounds the threads
// meet, untimed, and the last to arrive creates the next round, so no
// creation overlaps the timed begin/end pairs.
void BM_ConcurrentTaskLifecycle(benchmark::State& state) {
  static ConcurrentVersionStore* store = nullptr;
  static std::mutex mu;
  static std::condition_variable cv;
  static int arrived = 0;
  static std::uint64_t generation = 0;
  static TaskId created = 0;  ///< ids 1..created exist
  if (state.thread_index() == 0) {
    store = new ConcurrentVersionStore();
    created = 0;
  }
  constexpr TaskId kRound = 4096;
  const int n = state.threads();
  const auto w = static_cast<TaskId>(state.thread_index());
  TaskId next = 0;  // first id of this thread's current round
  TaskId j = kRound;
  for (auto _ : state) {
    if (j == kRound) {
      state.PauseTiming();
      {
        std::unique_lock<std::mutex> lk(mu);
        const std::uint64_t gen = generation;
        if (++arrived == n) {
          const TaskId end = created + kRound * static_cast<TaskId>(n);
          while (created < end) store->task_created(++created);
          arrived = 0;
          ++generation;
          cv.notify_all();
        } else {
          cv.wait(lk, [gen] { return generation != gen; });
        }
        next = created - kRound * static_cast<TaskId>(n) + 1 + w;
      }
      state.ResumeTiming();
      j = 0;
    }
    const TaskId t = next + j * static_cast<TaskId>(n);
    store->task_begin(t);
    store->task_end(t);
    ++j;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete store;  // every thread has left the loop (end barrier)
    store = nullptr;
  }
}

void BM_ConcurrentLoadLatest(benchmark::State& state) {
  ConcurrentVersionStore store;
  const OAddr a = store.alloc();
  store.store_version(a, 1, 7);
  store.store_version(a, 2, 9);
  Ver found = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.load_latest(a, 2, &found));
  }
}

BENCHMARK(BM_CacheHit);
BENCHMARK(BM_CacheMissFill);
BENCHMARK(BM_MemorySystemAccess);
BENCHMARK(BM_VersionListInsert)->Arg(8)->Arg(64)->Arg(512);
BENCHMARK(BM_VersionListFindLatest)->Arg(8)->Arg(64)->Arg(512);
// 2^10 blocks come from the heap, already committed; 2^20 (the default
// pool, 48 MiB) is a fresh mapping whose every page faults on first use.
BENCHMARK(BM_BlockPoolCarve)->Arg(1 << 10)->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_EnvConstruct, timed, BackendKind::kTimed)
    ->Arg(1)
    ->Arg(32);
BENCHMARK_CAPTURE(BM_EnvConstruct, functional, BackendKind::kFunctional)
    ->Arg(1)
    ->Arg(32);
BENCHMARK(BM_CompressedInstallFind);
BENCHMARK(BM_VersionedStoreLoad);
BENCHMARK(BM_VersionedDirectHit);
BENCHMARK(BM_FiberSwitch);
// Fixed iteration count: the per-task cost still rises with the number of
// tasks a run creates (single thread about 42/52/63 ns at 2^17/2^19/2^21
// iterations), for a reason not yet identified — the task trackers' tables
// no longer grow with every id ever inserted. Runs must create the same
// number of tasks to compare.
BENCHMARK(BM_ConcurrentTaskLifecycle)
    ->Iterations(1 << 19)
    ->Threads(1)
    ->Threads(3);
BENCHMARK(BM_ConcurrentLoadLatest);

}  // namespace
}  // namespace osim

BENCHMARK_MAIN();
