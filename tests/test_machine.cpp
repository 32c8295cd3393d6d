// Unit tests for the multicore machine: deterministic scheduling, timing,
// blocking/wakeup, deadlock detection, fault propagation.
#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

namespace osim {
namespace {

using telemetry::Component;

MachineConfig cfg(int cores) {
  MachineConfig c;
  c.num_cores = cores;
  return c;
}

TEST(Machine, SingleCoreRunsToCompletion) {
  Machine m(cfg(1));
  int x = 0;
  m.spawn(0, [&] {
    mach().exec(10);
    x = 7;
  });
  m.run();
  EXPECT_EQ(x, 7);
  // 10 instructions on a 2-wide core = 5 cycles.
  EXPECT_EQ(m.elapsed(), 5u);
  EXPECT_EQ(m.metrics().value(Component::kCore, "instructions", 0), 10u);
}

TEST(Machine, ExecRoundsUpToIssueWidth) {
  Machine m(cfg(1));
  m.spawn(0, [&] { mach().exec(7); });
  m.run();
  EXPECT_EQ(m.elapsed(), 4u);  // ceil(7/2)
}

TEST(Machine, MemAccessChargesHierarchyLatency) {
  Machine m(cfg(1));
  m.spawn(0, [&] {
    mach().mem_access(0x1000, AccessType::kRead);
    mach().mem_access(0x1000, AccessType::kRead);
  });
  m.run();
  const auto& c = m.config();
  EXPECT_EQ(m.elapsed(), (c.l1.hit_latency + c.l2_hit_latency +
                          c.dram_latency) +
                             c.l1.hit_latency);
}

TEST(Machine, MemoryEventsProcessedInGlobalTimeOrder) {
  // Core 1 starts 1000 cycles "later"; its write to X must be observed by
  // the memory system after core 0's earlier accesses even though core 1's
  // fiber could physically run first.
  Machine m(cfg(2));
  std::vector<int> order;
  m.spawn(1, [&] {
    mach().advance(1000);
    mach().mem_access(0x9000, AccessType::kWrite);
    order.push_back(1);
  });
  m.spawn(0, [&] {
    mach().mem_access(0x9000, AccessType::kWrite);
    order.push_back(0);
  });
  m.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  // Core 1's miss found the line modified in core 0's L1.
  EXPECT_EQ(m.metrics().value(Component::kCache, "remote_l1_fills", 1), 1u);
}

TEST(Machine, TieBreaksByCoreId) {
  Machine m(cfg(2));
  std::vector<int> order;
  for (CoreId c : {1, 0}) {
    m.spawn(c, [&order, c] {
      mach().mem_access(0x100 + 0x1000 * c, AccessType::kRead);
      order.push_back(c);
    });
  }
  m.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);  // equal clocks: lower id goes first
}

TEST(Machine, WokenCoreTyingAnotherRunsInCoreIdOrder) {
  // Core 2 wakes `woken` at clock 110, the clock `tied` reaches by itself;
  // of two runnable cores with equal clocks the lower id goes first,
  // whichever of them was woken.
  for (const auto& [woken, tied] : {std::pair<CoreId, CoreId>{0, 1}, {1, 0}}) {
    Machine m(cfg(3));
    WaitList wl;
    std::vector<CoreId> order;
    m.spawn(woken, [&, w = woken] {
      mach().block_on(wl);
      EXPECT_EQ(mach().now(), 110u);
      mach().mem_access(0x1000, AccessType::kRead);
      order.push_back(w);
    });
    m.spawn(tied, [&, t = tied] {
      mach().advance(110);
      mach().mem_access(0x2000, AccessType::kRead);
      order.push_back(t);
    });
    m.spawn(2, [&] {
      mach().advance(100);
      mach().sync_to_global_order();
      mach().wake_all(wl, /*wake_latency=*/10);
    });
    m.run();
    EXPECT_EQ(order, (std::vector<CoreId>{0, 1})) << "woken core " << woken;
  }
}

TEST(Machine, BlockAndWake) {
  Machine m(cfg(2));
  WaitList wl;
  std::vector<int> order;
  m.spawn(0, [&] {
    order.push_back(0);
    mach().block_on(wl);
    order.push_back(2);
  });
  m.spawn(1, [&] {
    mach().advance(500);  // make sure core 0 blocks first
    mach().sync_to_global_order();
    order.push_back(1);
    mach().wake_all(wl, /*wake_latency=*/8);
  });
  m.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  // Woken core resumes at waker time + latency.
  EXPECT_GE(m.elapsed(), 508u);
  EXPECT_GE(m.metrics().value(Component::kCore, "stall_cycles", 0), 500u);
}

TEST(Machine, WakeAllWakesEveryWaiter) {
  Machine m(cfg(4));
  WaitList wl;
  int woken = 0;
  for (CoreId c : {0, 1, 2}) {
    m.spawn(c, [&] {
      mach().block_on(wl);
      ++woken;
    });
  }
  m.spawn(3, [&] {
    mach().advance(100);
    mach().sync_to_global_order();
    mach().wake_all(wl, 1);
  });
  m.run();
  EXPECT_EQ(woken, 3);
}

TEST(Machine, DeadlockDetected) {
  Machine m(cfg(2));
  WaitList wl;
  m.spawn(0, [&] { mach().block_on(wl); });
  m.spawn(1, [&] { mach().block_on(wl); });
  try {
    m.run();
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
  }
}

TEST(Machine, FaultPropagatesOutOfRun) {
  Machine m(cfg(2));
  WaitList wl;
  m.spawn(0, [&] { mach().block_on(wl); });  // must be unwound cleanly
  m.spawn(1, [&] {
    mach().advance(10);
    mach().sync_to_global_order();
    throw std::runtime_error("simulated protection fault");
  });
  try {
    m.run();
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("protection fault"),
              std::string::npos);
  }
}

// After a faulted or deadlocked run the machine holds no runnable core:
// new programs run to completion on it.
TEST(Machine, RunsAgainAfterFault) {
  // At the fault core 0 is blocked, core 1 is runnable and core 3 has not
  // started yet.
  Machine m(cfg(4));
  WaitList wl;
  m.spawn(0, [&] { mach().block_on(wl); });
  m.spawn(1, [&] {
    mach().advance(5);
    mach().mem_access(0x1000, AccessType::kRead);
  });
  m.spawn(2, [&] { throw std::runtime_error("simulated protection fault"); });
  m.spawn(3, [&] { mach().exec(1); });
  EXPECT_THROW(m.run(), SimError);
  int finished = 0;
  for (CoreId c = 0; c < 4; ++c) {
    m.spawn(c, [&] {
      mach().mem_access(0x2000, AccessType::kWrite);
      ++finished;
    });
  }
  m.run();
  EXPECT_EQ(finished, 4);
}

TEST(Machine, RunsAgainAfterDeadlock) {
  Machine m(cfg(2));
  WaitList wl;
  m.spawn(0, [&] { mach().block_on(wl); });
  m.spawn(1, [&] {
    mach().advance(3);
    mach().block_on(wl);
  });
  EXPECT_THROW(m.run(), SimError);
  int finished = 0;
  for (CoreId c = 0; c < 2; ++c) {
    m.spawn(c, [&] {
      mach().exec(4);
      ++finished;
    });
  }
  m.run();
  EXPECT_EQ(finished, 2);
}

// Random programs of advance, mem_access, block_on and wake_all, run on the
// machine and on a brute-force reference that scans every core for the
// (clock, id) minimum at each scheduling point and drives its own memory
// system. The two must see the same memory events, in the same order, at
// the same clocks.
struct RandomOp {
  enum Kind { kAdvance, kMem, kBlock, kWake } kind;
  std::uint64_t arg;  // cycles, address or wake latency
  int list;           // wait list of kBlock / kWake
};

// One memory event: (core, address, clock after the access).
using MemEvent = std::tuple<CoreId, Addr, Cycles>;

constexpr int kRandomCores = 8;
constexpr int kRandomLists = 3;

std::vector<std::vector<RandomOp>> random_programs(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<RandomOp>> progs(kRandomCores);
  for (auto& prog : progs) {
    const int n = 20 + static_cast<int>(rng() % 30);
    for (int i = 0; i < n; ++i) {
      const auto r = rng() % 10;
      const int list = static_cast<int>(rng() % kRandomLists);
      if (r < 3) {
        prog.push_back({RandomOp::kAdvance, rng() % 40, list});
      } else if (r < 7) {
        // Eight shared lines: coherence makes latencies order-dependent.
        const Addr a = 0x10000 + 64 * (rng() % 8) + (rng() % 2) * 8;
        prog.push_back({RandomOp::kMem, a, list});
      } else if (r < 8) {
        prog.push_back({RandomOp::kBlock, 0, list});
      } else {
        prog.push_back({RandomOp::kWake, rng() % 12, list});
      }
    }
    for (int l = 0; l < kRandomLists; ++l) {
      prog.push_back({RandomOp::kWake, 0, l});
    }
  }
  return progs;
}

AccessType access_type(Addr a) {
  return (a & 8) != 0 ? AccessType::kWrite : AccessType::kRead;
}

// Runs `progs` on a Machine; returns its memory events and whether it
// deadlocked.
std::pair<std::vector<MemEvent>, bool> run_on_machine(
    const std::vector<std::vector<RandomOp>>& progs) {
  Machine m(cfg(kRandomCores));
  std::vector<WaitList> lists(kRandomLists);
  std::vector<MemEvent> events;
  for (CoreId c = 0; c < kRandomCores; ++c) {
    m.spawn(c, [&, c] {
      for (const RandomOp& op : progs[static_cast<std::size_t>(c)]) {
        switch (op.kind) {
          case RandomOp::kAdvance:
            mach().advance(op.arg);
            break;
          case RandomOp::kMem:
            mach().mem_access(op.arg, access_type(op.arg));
            events.emplace_back(c, op.arg, mach().now());
            break;
          case RandomOp::kBlock:
            mach().block_on(lists[static_cast<std::size_t>(op.list)]);
            break;
          case RandomOp::kWake:
            mach().wake_all(lists[static_cast<std::size_t>(op.list)], op.arg);
            break;
        }
      }
    });
  }
  bool deadlocked = false;
  try {
    m.run();
  } catch (const SimError&) {
    deadlocked = true;
  }
  return {events, deadlocked};
}

std::pair<std::vector<MemEvent>, bool> run_on_reference(
    const std::vector<std::vector<RandomOp>>& progs) {
  const MachineConfig c = cfg(kRandomCores);
  telemetry::MetricRegistry reg(kRandomCores);
  MemorySystem memsys(c, reg);
  enum class St { kRunnable, kBlocked, kDone };
  std::vector<Cycles> clock(kRandomCores, 0);
  std::vector<std::size_t> pc(kRandomCores, 0);
  std::vector<St> st(kRandomCores, St::kRunnable);
  std::vector<std::vector<CoreId>> lists(kRandomLists);
  std::vector<MemEvent> events;
  // Brute force: scan every core; strict '<' keeps the lowest id on ties.
  const auto earliest = [&] {
    CoreId best = -1;
    for (CoreId i = 0; i < kRandomCores; ++i) {
      if (st[static_cast<std::size_t>(i)] != St::kRunnable) continue;
      if (best < 0 || clock[static_cast<std::size_t>(i)] <
                          clock[static_cast<std::size_t>(best)]) {
        best = i;
      }
    }
    return best;
  };
  CoreId cur = earliest();
  while (cur >= 0) {
    const auto ci = static_cast<std::size_t>(cur);
    if (pc[ci] == progs[ci].size()) {
      st[ci] = St::kDone;
      cur = earliest();
      continue;
    }
    const RandomOp& op = progs[ci][pc[ci]];
    switch (op.kind) {
      case RandomOp::kAdvance:
        clock[ci] += op.arg;
        break;
      case RandomOp::kMem:
        if (earliest() != cur) {  // yield; retry the access when resumed
          cur = earliest();
          continue;
        }
        clock[ci] += memsys.access(cur, op.arg, access_type(op.arg));
        events.emplace_back(cur, op.arg, clock[ci]);
        break;
      case RandomOp::kBlock:
        st[ci] = St::kBlocked;
        lists[static_cast<std::size_t>(op.list)].push_back(cur);
        ++pc[ci];
        cur = earliest();
        continue;
      case RandomOp::kWake:
        for (CoreId w : lists[static_cast<std::size_t>(op.list)]) {
          const auto wi = static_cast<std::size_t>(w);
          clock[wi] = std::max(clock[wi], clock[ci] + op.arg);
          st[wi] = St::kRunnable;
        }
        lists[static_cast<std::size_t>(op.list)].clear();
        break;
    }
    ++pc[ci];
  }
  const bool deadlocked =
      std::find(st.begin(), st.end(), St::kBlocked) != st.end();
  return {events, deadlocked};
}

TEST(Machine, RandomProgramsMatchBruteForceScheduler) {
  int completed = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto progs = random_programs(seed);
    const auto [events, deadlocked] = run_on_machine(progs);
    const auto [ref_events, ref_deadlocked] = run_on_reference(progs);
    EXPECT_EQ(deadlocked, ref_deadlocked) << "seed " << seed;
    ASSERT_EQ(events, ref_events) << "seed " << seed;
    EXPECT_GT(events.size(), 0u);
    completed += deadlocked ? 0 : 1;
  }
  EXPECT_GE(completed, 10);  // most seeds must run to completion
}

TEST(Machine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Machine m(cfg(4));
    std::vector<int> order;
    for (CoreId c = 0; c < 4; ++c) {
      m.spawn(c, [&order, c] {
        for (int i = 0; i < 10; ++i) {
          mach().mem_access(0x1000 * (c + 1) + 64 * i, AccessType::kRead);
          mach().exec(3 + c);
          order.push_back(c);
        }
      });
    }
    m.run();
    return order;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(Machine, ElapsedIsMaxOverCores) {
  Machine m(cfg(2));
  m.spawn(0, [&] { mach().advance(10); });
  m.spawn(1, [&] { mach().advance(999); });
  m.run();
  EXPECT_EQ(m.elapsed(), 999u);
}

TEST(Machine, IdleCoresDoNotBlockCompletion) {
  Machine m(cfg(8));
  m.spawn(3, [&] { mach().exec(2); });
  m.run();  // cores 0-2, 4-7 have no program
  EXPECT_EQ(m.elapsed(), 1u);
}

TEST(Machine, CoreCanBeRespawnedAfterCompletion) {
  // A verification pass may reuse cores after the measured run; the clock
  // carries on monotonically.
  Machine m(cfg(1));
  m.spawn(0, [&] { mach().advance(100); });
  m.run();
  Cycles second_start = 0;
  m.spawn(0, [&] {
    second_start = mach().now();
    mach().advance(50);
  });
  m.run();
  EXPECT_EQ(second_start, 100u);
  EXPECT_EQ(m.elapsed(), 150u);
}

TEST(Machine, SharedCounterInterleavingIsTimestampOrdered) {
  // Two cores increment a shared counter at interleaved timestamps; the
  // final value must equal the sum (no lost updates are possible because
  // each fiber's op runs atomically at its timestamp).
  Machine m(cfg(2));
  int counter = 0;
  for (CoreId c = 0; c < 2; ++c) {
    m.spawn(c, [&counter, c] {
      for (int i = 0; i < 100; ++i) {
        mach().mem_access(0xA000, AccessType::kWrite);
        counter++;
        mach().exec(1 + c);
      }
    });
  }
  m.run();
  EXPECT_EQ(counter, 200);
  // Writes ping-pong the line: both cores must see remote fills/upgrades.
  EXPECT_GT(m.metrics().value(Component::kCache, "remote_l1_fills", 0) +
                m.metrics().value(Component::kCache, "upgrades", 0),
            0u);
}

}  // namespace
}  // namespace osim
