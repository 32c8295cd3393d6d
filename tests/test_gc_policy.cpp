// BoundedSpacePolicy behind the GcPolicy seam: unit tests for the
// range-tracking reclamation rule, plus the stress tests backing the
// policy's headline claim — under a reader that never finishes, the
// unreclaimed set stays at O(live versions + batch) where the paper's
// watermark collector grows without bound on the same stream.
#include "core/gc_policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "core/concurrent_store.hpp"
#include "core/fault.hpp"
#include "core/flat_map.hpp"
#include "runtime/env.hpp"

namespace osim {
namespace {

// ---------------------------------------------------------------------------
// Unit tests: the policy object against a bare pool, like the GcTest
// fixture test_gc.cpp uses for PaperWatermarkPolicy.

class BoundedGcTest : public ::testing::Test, protected GcOwner {
 protected:
  BoundedGcTest() : gc(/*min_batch=*/4, pool, reg, *this) {}

  void gc_reclaim(BlockIndex b) override {
    reclaimed.push_back(b);
    pool.free(b);
  }
  void gc_event(telemetry::EventType, std::uint64_t, Ver,
                std::uint64_t) override {}

  /// A live block holding version `v`, registered as shadowed by `s`.
  BlockIndex shadowed_block(Ver v, Ver s) {
    const BlockIndex b = pool.alloc();
    EXPECT_NE(b, kNullBlock);
    pool[b].version = v;
    gc.on_shadowed(b, s);
    return b;
  }
  /// Sweeps run so far: the policy's gc/sweeps counter.
  std::uint64_t sweeps() const {
    return reg.total(telemetry::Component::kGc, "sweeps");
  }

  BlockPool pool{64};
  telemetry::MetricRegistry reg{1};
  std::vector<BlockIndex> reclaimed;
  BoundedSpacePolicy gc;
};

TEST_F(BoundedGcTest, ReclaimsRangeFreeBlockDespiteOlderTask) {
  // Task 1 is ancient and unfinished — the paper policy would pin every
  // pending block behind it. The range rule does not care: no unfinished
  // task lies in [5, 8), so the block is unreachable.
  gc.task_begin(1);
  gc.task_begin(10);
  const BlockIndex b = shadowed_block(/*v=*/5, /*s=*/8);
  EXPECT_TRUE(gc.maybe_collect());
  EXPECT_EQ(reclaimed, (std::vector<BlockIndex>{b}));
  EXPECT_EQ(gc.shadowed_size(), 0u);
  gc.task_end(1);
  gc.task_end(10);
}

TEST_F(BoundedGcTest, LiveTaskInsideRangePinsThenTaskEndSweeps) {
  gc.task_begin(6);  // 6 is in [5, 8): it may still read version 5
  const BlockIndex b = shadowed_block(/*v=*/5, /*s=*/8);
  EXPECT_FALSE(gc.maybe_collect());
  EXPECT_TRUE(reclaimed.empty());
  EXPECT_EQ(gc.shadowed_size(), 1u);
  // task_end sweeps on its own: the range just became unpinned.
  gc.task_end(6);
  EXPECT_EQ(reclaimed, (std::vector<BlockIndex>{b}));
}

TEST_F(BoundedGcTest, RangeIsHalfOpen) {
  // Tasks at version - 1 and at the shadower itself do not pin: only ids
  // in [version, shadower) can still read the shadowed version.
  gc.task_begin(4);
  gc.task_begin(8);
  shadowed_block(/*v=*/5, /*s=*/8);
  EXPECT_TRUE(gc.maybe_collect());
  EXPECT_EQ(reclaimed.size(), 1u);
  gc.task_end(4);
  gc.task_end(8);
}

TEST_F(BoundedGcTest, LockedBlockWaitsForUnlock) {
  const BlockIndex b = shadowed_block(/*v=*/3, /*s=*/5);
  pool[b].locked_by = 7;  // the ISA frees locked versions, never the GC
  EXPECT_FALSE(gc.maybe_collect());
  EXPECT_TRUE(reclaimed.empty());
  pool[b].locked_by = kNoTask;
  EXPECT_TRUE(gc.maybe_collect());
  EXPECT_EQ(reclaimed, (std::vector<BlockIndex>{b}));
}

TEST_F(BoundedGcTest, StaleGenerationSkipped) {
  const BlockIndex b = shadowed_block(/*v=*/3, /*s=*/5);
  // The O-structure was released wholesale: the block went back to the
  // pool (and bumped its generation) outside the GC. No double-free.
  pool.free(b);
  const std::size_t free_before = pool.free_count();
  EXPECT_FALSE(gc.maybe_collect());
  EXPECT_TRUE(reclaimed.empty());
  EXPECT_EQ(pool.free_count(), free_before);
  EXPECT_EQ(gc.shadowed_size(), 0u);  // dropped from tracking regardless
}

TEST_F(BoundedGcTest, AmortizedSweepTriggersAtBatch) {
  // on_shadowed only records; the amortized trigger fires from
  // on_store_complete once the tracked set outgrows the last sweep's
  // survivors by min_batch.
  for (Ver v = 1; v <= 3; ++v) {
    shadowed_block(v, v + 1);
    gc.on_store_complete();
    EXPECT_EQ(sweeps(), 0u);
  }
  shadowed_block(4, 5);
  gc.on_store_complete();
  EXPECT_EQ(sweeps(), 1u);
  EXPECT_EQ(reclaimed.size(), 4u);  // no tasks: every range is clear
  EXPECT_EQ(reg.total(telemetry::Component::kGc, "sweeps"), 1u);
  EXPECT_EQ(reg.total(telemetry::Component::kGc, "shadowed_blocks"), 4u);
}

TEST_F(BoundedGcTest, SurvivorsRaiseTheNextTriggerPoint) {
  // Pinned survivors must not cause a sweep per registration: the trigger
  // is survivors + batch, so every sweep is paid for by batch new blocks.
  gc.task_begin(3);
  for (int i = 0; i < 4; ++i) {
    shadowed_block(/*v=*/2, /*s=*/9);  // 3 is in [2, 9): pinned
    gc.on_store_complete();
  }
  EXPECT_EQ(sweeps(), 1u);  // 4 tracked >= 0 survivors + 4 batch
  EXPECT_TRUE(reclaimed.empty());
  for (int i = 0; i < 3; ++i) {
    shadowed_block(/*v=*/2, /*s=*/9);
    gc.on_store_complete();
    EXPECT_EQ(sweeps(), 1u);  // 5..7 tracked < 4 survivors + 4 batch
  }
  shadowed_block(/*v=*/2, /*s=*/9);
  gc.on_store_complete();
  EXPECT_EQ(sweeps(), 2u);
  EXPECT_TRUE(reclaimed.empty());
  gc.task_end(3);  // unpins all eight at once
  EXPECT_EQ(reclaimed.size(), 8u);
}

TEST_F(BoundedGcTest, FloorRisesToMaxReclaimedShadower) {
  shadowed_block(/*v=*/5, /*s=*/9);
  EXPECT_TRUE(gc.maybe_collect());
  EXPECT_EQ(gc.floor(), 8u);
  // Same fault surface as the paper policy: a task at or below the floor
  // could land inside a reclaimed range.
  try {
    gc.task_created(8);
    FAIL() << "expected OFault";
  } catch (const OFault& f) {
    EXPECT_EQ(f.kind(), FaultKind::kTaskOrderViolation);
  }
  gc.task_begin(9);  // the shadower id itself is above the floor
  gc.task_end(9);
}

TEST_F(BoundedGcTest, MaybeCollectReportsWhetherWorkRan) {
  EXPECT_FALSE(gc.maybe_collect());  // nothing tracked: no sweep at all
  EXPECT_EQ(sweeps(), 0u);
  gc.task_begin(2);
  shadowed_block(/*v=*/1, /*s=*/4);  // pinned by task 2
  EXPECT_FALSE(gc.maybe_collect());  // swept, freed nothing
  EXPECT_EQ(sweeps(), 1u);
  gc.task_end(2);
}

TEST_F(BoundedGcTest, NoPhaseMachinery) {
  gc.task_begin(2);
  shadowed_block(/*v=*/1, /*s=*/4);
  gc.maybe_collect();
  EXPECT_FALSE(gc.phase_active());
  EXPECT_EQ(gc.pending_size(), 0u);
  EXPECT_EQ(gc.fence(), 0u);
  gc.task_end(2);
}

// ---------------------------------------------------------------------------
// GcTaskTracker: the unfinished-task set both engines' GC rules read.

// Insert/erase churn (a task tracker's life: ids created, ended, never
// reused) must not grow the table with every key it ever held: 1M
// distinct keys with at most 8 live fit the first table.
TEST(FlatMap, ChurnKeepsCapacityBounded) {
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 1000000; ++k) {
    m[k] = 1;
    if (k >= 8) {
      EXPECT_EQ(m.erase(k - 8), 1u);
    }
  }
  EXPECT_EQ(m.size(), 8u);
  EXPECT_LE(m.capacity(), 32u);
  for (std::uint64_t k = 1000000 - 8; k < 1000000; ++k) {
    EXPECT_TRUE(m.contains(k));
  }
  EXPECT_FALSE(m.contains(1000000 - 9));
}

TEST(GcTaskTracker, RepeatedCreationCountsUntilLastEnd) {
  GcTaskTracker tr;
  tr.add(5);
  tr.add(5);
  EXPECT_EQ(tr.live(), 1u);  // one distinct id, created twice
  EXPECT_TRUE(tr.remove(5));
  EXPECT_TRUE(tr.contains(5));
  EXPECT_EQ(tr.oldest(), 5u);
  EXPECT_TRUE(tr.remove(5));
  EXPECT_TRUE(tr.empty());
  EXPECT_FALSE(tr.contains(5));
  EXPECT_FALSE(tr.remove(5));
}

TEST(GcTaskTracker, RemovalNearHeadAndNearTail) {
  GcTaskTracker tr;
  for (TaskId t = 1; t <= 10; ++t) tr.add(t);
  EXPECT_TRUE(tr.remove(2));  // next to the head: stays as a dead entry
  EXPECT_TRUE(tr.remove(9));  // next to the tail: likewise
  EXPECT_EQ(tr.live(), 8u);
  EXPECT_EQ(tr.oldest(), 1u);
  EXPECT_FALSE(tr.any_in(2, 3));
  EXPECT_FALSE(tr.any_in(9, 10));
  EXPECT_TRUE(tr.any_in(1, 2));
  EXPECT_TRUE(tr.any_in(2, 4));  // skips dead 2, finds 3
  EXPECT_TRUE(tr.any_in(10, 11));
  EXPECT_TRUE(tr.remove(1));  // the oldest: the head skips dead 2
  EXPECT_EQ(tr.oldest(), 3u);
  EXPECT_TRUE(tr.remove(10));  // the newest
  EXPECT_FALSE(tr.any_in(9, 100));
  EXPECT_TRUE(tr.remove(5));
  EXPECT_FALSE(tr.any_in(5, 6));
  tr.add(5);  // re-creating an ended id revives its entry
  EXPECT_TRUE(tr.any_in(5, 6));
  tr.add(2);  // an out-of-order creation lands in sorted position
  EXPECT_EQ(tr.oldest(), 2u);
  EXPECT_EQ(tr.live(), 7u);
  EXPECT_TRUE(tr.any_in(0, 3));
  EXPECT_FALSE(tr.any_in(0, 2));
}

TEST(GcTaskTracker, AnyInIsHalfOpen) {
  GcTaskTracker tr;
  EXPECT_FALSE(tr.any_in(0, 100));  // empty
  tr.add(5);
  EXPECT_TRUE(tr.any_in(5, 6));    // lo is inside
  EXPECT_FALSE(tr.any_in(4, 5));   // hi is outside
  EXPECT_FALSE(tr.any_in(6, 10));
  EXPECT_FALSE(tr.any_in(5, 5));   // empty range
  EXPECT_TRUE(tr.any_in(0, 100));
}

TEST(GcTaskTracker, OldestSurvivesHeadCompaction) {
  GcTaskTracker tr;
  for (TaskId t = 1; t <= 100; ++t) tr.add(t);
  // Oldest-first retirement advances the head past a dead prefix that is
  // compacted once it outgrows the live ids (first when id 51 ends).
  for (TaskId t = 1; t <= 80; ++t) {
    ASSERT_EQ(tr.oldest(), t);
    ASSERT_TRUE(tr.remove(t));
    ASSERT_EQ(tr.live(), 100u - t);
  }
  EXPECT_EQ(tr.oldest(), 81u);
  for (TaskId t = 101; t <= 110; ++t) tr.add(t);
  EXPECT_EQ(tr.live(), 30u);
  for (TaskId t = 81; t <= 109; ++t) {
    ASSERT_EQ(tr.oldest(), t);
    ASSERT_TRUE(tr.remove(t));
  }
  EXPECT_EQ(tr.oldest(), 110u);
  EXPECT_TRUE(tr.any_in(110, 111));
  EXPECT_FALSE(tr.any_in(0, 110));
  EXPECT_TRUE(tr.remove(110));
  EXPECT_TRUE(tr.empty());
  tr.add(7);  // reusable after draining
  EXPECT_EQ(tr.oldest(), 7u);
}

/// Creates ids 1..n up front (every 1000th twice), then ends them in
/// `order(ids, rng)`, checking the tracker against a std::map reference
/// after every step.
template <typename Order>
void check_up_front_against_reference(TaskId n, Order order) {
  GcTaskTracker tr;
  std::map<TaskId, int> ref;
  for (TaskId t = 1; t <= n; ++t) {
    tr.add(t);
    ++ref[t];
    if (t % 1000 == 0) {
      tr.add(t);
      ++ref[t];
    }
  }
  std::vector<TaskId> ends;
  for (const auto& [t, c] : ref) ends.insert(ends.end(), c, t);
  std::mt19937_64 rng(13);
  ends = order(std::move(ends), rng);
  for (const TaskId t : ends) {
    ASSERT_TRUE(tr.remove(t));
    if (--ref[t] == 0) ref.erase(t);
    ASSERT_EQ(tr.live(), ref.size());
    ASSERT_EQ(tr.contains(t), ref.count(t) == 1);
    if (ref.empty()) break;
    ASSERT_EQ(tr.oldest(), ref.begin()->first);
    const Ver lo = t > 8 ? t - 8 : 0;
    const auto it = ref.lower_bound(lo);
    ASSERT_EQ(tr.any_in(lo, t + 8), it != ref.end() && it->first < t + 8)
        << "after ending " << t;
  }
  EXPECT_TRUE(tr.empty());
  EXPECT_FALSE(tr.remove(1));
}

TEST(GcTaskTracker, UpFrontCreationNearAscendingEndMatchesReference) {
  // Each id displaced by up to 16 places from id order.
  check_up_front_against_reference(
      120000, [](std::vector<TaskId> ends, std::mt19937_64& rng) {
        for (std::size_t i = 0; i < ends.size(); i += 16) {
          std::shuffle(ends.begin() + i,
                       ends.begin() + std::min(i + 16, ends.size()), rng);
        }
        return ends;
      });
}

TEST(GcTaskTracker, UpFrontCreationDriftingWorkersMatchesReference) {
  // The task pools' shape: worker k ends ids = k (mod 3) in ascending
  // order, and the workers advance at different rates, so most ends land
  // far from both ends of the live range.
  check_up_front_against_reference(
      120000, [](std::vector<TaskId> ends, std::mt19937_64& rng) {
        std::vector<TaskId> lanes[3];
        for (const TaskId t : ends) lanes[t % 3].push_back(t);
        std::size_t pos[3] = {0, 0, 0};
        std::vector<TaskId> out;
        std::discrete_distribution<int> pick({6, 3, 1});
        while (out.size() < ends.size()) {
          const int k = pick(rng);
          if (pos[k] < lanes[k].size()) out.push_back(lanes[k][pos[k]++]);
        }
        return out;
      });
}

// ---------------------------------------------------------------------------
// Stress: the space bound on the serial engine (functional backend).

std::uint64_t mix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Zipfian slot pick: slot j with probability proportional to 1/(j+1).
std::uint64_t zipf_slot(std::uint64_t& seed, int nslots) {
  static thread_local std::vector<double> cdf;
  if (cdf.size() != static_cast<std::size_t>(nslots)) {
    cdf.assign(static_cast<std::size_t>(nslots), 0.0);
    double sum = 0.0;
    for (int j = 0; j < nslots; ++j) {
      sum += 1.0 / (1.0 + j);
      cdf[static_cast<std::size_t>(j)] = sum;
    }
    for (double& c : cdf) c /= sum;
  }
  const double u =
      static_cast<double>(mix64(seed) >> 11) / static_cast<double>(1ull << 53);
  return static_cast<std::uint64_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

struct StressOutcome {
  std::uint64_t peak_unreclaimed = 0;  ///< max shadowed+pending ever tracked
  std::uint64_t peak_gauge = 0;        ///< max of the gc/pending_blocks gauge
  std::uint64_t blocks_freed = 0;      ///< while the reader was still live
  std::uint64_t os_traps = 0;
  std::size_t pool_blocks = 0;  ///< final pool size (growth = space leaked)
  bool reader_ok = true;        ///< version 1 stayed readable throughout
  bool check_clean = true;
};

/// One immortal reader (task 1) holds its read cap at 1 forever while
/// `writers` short tasks churn versions through a Zipfian-hot set of slots.
/// Every write shadows the slot's previous newest version; whether those
/// shadowed blocks ever come back is entirely the policy's call.
StressOutcome run_immortal_reader(GcPolicyKind gc, int writers) {
  constexpr int kSlots = 8;
  constexpr std::size_t kBatch = 16;
  MachineConfig c;
  c.num_cores = 1;
  c.backend = BackendKind::kFunctional;
  c.ostruct.gc_policy = gc;
  c.ostruct.gc_bounded_batch = kBatch;
  c.ostruct.initial_pool_blocks = 64;
  c.ostruct.trap_grow_blocks = 64;
  c.ostruct.gc_watermark = 16;
  c.ostruct.check_mode = 2;
  Env env(c);
  VersionStore& vs = env.store();
  const OAddr base = vs.alloc(kSlots);

  vs.task_begin(1);  // the immortal reader; also seeds version 1 everywhere
  for (int s = 0; s < kSlots; ++s) {
    vs.store_version(base + 8 * static_cast<OAddr>(s), 1,
                     1000 + static_cast<std::uint64_t>(s));
  }

  StressOutcome out;
  std::uint64_t seed = 0xD1CEull;
  for (TaskId t = 2; t < 2 + static_cast<TaskId>(writers); ++t) {
    vs.task_begin(t);
    const std::uint64_t slot = zipf_slot(seed, kSlots);
    vs.store_version(base + 8 * slot, t, t * 31 + slot);
    out.peak_unreclaimed =
        std::max<std::uint64_t>(out.peak_unreclaimed,
                                vs.gc().shadowed_size() + vs.gc().pending_size());
    out.peak_gauge = std::max(
        out.peak_gauge,
        env.metrics().total(telemetry::Component::kGc, "pending_blocks"));
    vs.task_end(t);
    // The reader's world must be intact no matter what got reclaimed.
    if ((t & 0xFF) == 0) {
      Ver got = 0;
      const std::uint64_t d = vs.load_latest(base + 8 * slot, 1, &got);
      out.reader_ok &= got == 1 && d == 1000 + slot;
    }
  }

  out.blocks_freed = env.metrics().total(telemetry::Component::kOsm,
                                         "blocks_freed");
  out.os_traps = env.metrics().total(telemetry::Component::kOsm, "os_traps");
  out.pool_blocks = vs.pool().size();
  for (int s = 0; s < kSlots; ++s) {
    Ver got = 0;
    const std::uint64_t d =
        vs.load_latest(base + 8 * static_cast<OAddr>(s), 1, &got);
    out.reader_ok &= got == 1 && d == 1000 + static_cast<std::uint64_t>(s);
  }
  vs.task_end(1);
  env.checker()->finish();
  out.check_clean = env.checker()->clean();
  return out;
}

TEST(GcPolicyStress, BoundedSpaceHoldsWherePaperGrowsUnboundedly) {
  constexpr int kWriters = 3000;
  constexpr std::uint64_t kSlots = 8, kBatch = 16;

  const StressOutcome bounded =
      run_immortal_reader(GcPolicyKind::kBounded, kWriters);
  // The headline bound: live versions (the reader pins at most one old
  // version per slot) + the amortization batch — never the write count.
  EXPECT_LE(bounded.peak_gauge, kSlots + kBatch);
  EXPECT_LE(bounded.peak_unreclaimed, kSlots + kBatch);
  EXPECT_GE(bounded.blocks_freed,
            static_cast<std::uint64_t>(kWriters) - kSlots - kBatch);
  // Space really is bounded: the initial 64-block pool never grew.
  EXPECT_EQ(bounded.os_traps, 0u);
  EXPECT_EQ(bounded.pool_blocks, 64u);
  EXPECT_TRUE(bounded.reader_ok);
  EXPECT_TRUE(bounded.check_clean);

  const StressOutcome paper =
      run_immortal_reader(GcPolicyKind::kPaper, kWriters);
  // Same stream, paper rules: the immortal reader sits below every fence,
  // so nothing is ever reclaimed and the pool grows with the write count.
  EXPECT_EQ(paper.blocks_freed, 0u);
  EXPECT_GT(paper.peak_unreclaimed, static_cast<std::uint64_t>(kWriters) / 2);
  EXPECT_GT(paper.pool_blocks, 1000u);
  EXPECT_TRUE(paper.reader_ok);
  EXPECT_TRUE(paper.check_clean);
}

// ---------------------------------------------------------------------------
// Stress: the same contrast on the truly concurrent engine, with the
// reclaim decision racing real writer and reader threads (TSan target;
// tools/run-sanitizers.sh runs this binary under TSan).

std::uint64_t data_for(Ver v, std::uint64_t slot) {
  return (v * 0x9E3779B97F4A7C15ull) ^ (slot << 17) ^ 0x5DEECE66Dull;
}

struct ConcOutcome {
  std::uint64_t reclaimed = 0;
  std::uint64_t torn_reads = 0;
  int max_chain = 0;  ///< longest per-slot version chain at the end
  bool reader_ok = true;
};

ConcOutcome run_concurrent_immortal_reader(GcPolicyKind gc, int writes) {
  constexpr std::uint64_t kSlots = 4;
  ConcurrencyConfig cfg;
  cfg.shards = 1;
  cfg.reclaim_threshold = 32;
  cfg.gc_policy = gc;
  ConcurrentVersionStore store(cfg);
  const OAddr base = store.alloc(kSlots);

  store.task_created(1);
  store.task_begin(1);  // the immortal reader, live for the whole run
  for (std::uint64_t s = 0; s < kSlots; ++s) {
    store.store_version(base + 8 * s, 1, data_for(1, s));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::thread reader([&store, base, &stop, &torn] {
    std::uint64_t seed = 0xBEEFull;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t slot = mix64(seed) % kSlots;
      Ver got = 0;
      // The reader's capped view: version 1 must stay readable (its range
      // holds task 1), and the pair must never tear.
      const std::uint64_t d1 = store.load_latest(base + 8 * slot, 1, &got);
      if (got != 1 || d1 != data_for(1, slot)) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
      // An uncapped racing walk for good measure.
      const std::uint64_t d = store.load_latest(base + 8 * slot, ~Ver{0}, &got);
      if (d != data_for(got, slot)) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  // Writers on real threads. Task creation is serialized (creation order
  // is program order in any real runtime — and the GC floor may rise past
  // an id that was handed out but never announced); the stores, task ends,
  // and reclaim passes all race freely.
  constexpr int kWriterThreads = 3;
  std::mutex create_mu;
  TaskId next_tid = 2;
  std::atomic<int> remaining{writes};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriterThreads; ++w) {
    writers.emplace_back([&store, base, &create_mu, &next_tid, &remaining] {
      while (remaining.fetch_sub(1, std::memory_order_relaxed) > 0) {
        TaskId tid;
        {
          std::lock_guard<std::mutex> lk(create_mu);
          tid = next_tid++;
          store.task_created(tid);
        }
        store.task_begin(tid);
        const std::uint64_t slot = tid % kSlots;
        store.store_version(base + 8 * slot, tid, data_for(tid, slot));
        store.task_end(tid);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  ConcOutcome out;
  out.reclaimed = store.stats().blocks_reclaimed;
  out.torn_reads = torn.load();
  for (std::uint64_t s = 0; s < kSlots; ++s) {
    out.max_chain = std::max(out.max_chain,
                             store.version_count(base + 8 * s));
    Ver got = 0;
    const std::uint64_t d = store.load_latest(base + 8 * s, 1, &got);
    out.reader_ok &= got == 1 && d == data_for(1, s);
  }
  store.task_end(1);
  return out;
}

TEST(GcPolicyConcurrent, BoundedReclaimsUnderImmortalReaderPaperCannot) {
  constexpr int kWrites = 4000;
  const ConcOutcome bounded =
      run_concurrent_immortal_reader(GcPolicyKind::kBounded, kWrites);
  EXPECT_EQ(bounded.torn_reads, 0u);
  EXPECT_TRUE(bounded.reader_ok);
  EXPECT_GT(bounded.reclaimed, 0u);
  // Chains stay short: everything between the reader's version 1 and the
  // slot head keeps getting recycled.
  EXPECT_LT(bounded.max_chain, kWrites / 8);

  const ConcOutcome paper =
      run_concurrent_immortal_reader(GcPolicyKind::kPaper, kWrites / 4);
  EXPECT_EQ(paper.torn_reads, 0u);
  EXPECT_TRUE(paper.reader_ok);
  // The fence rule pins every shadowed block behind the immortal reader.
  EXPECT_EQ(paper.reclaimed, 0u);
}

}  // namespace
}  // namespace osim
