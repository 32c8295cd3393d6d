// The model-checking harness itself under test: exhaustive exploration
// against the serial oracle on the litmus suite, sleep-set reduction vs
// the naive DFS, the preemption bound, determinism of repeated
// explorations, and the record/replay round trip (byte-identical
// reproduction, divergence detection, malformed-file rejection). The
// seeded-bug detection legs live in test_explore_seeded.cpp, which links
// an engine compiled with OSIM_MC_SEEDED_BUG.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "analysis/explore.hpp"
#include "workloads/opstream.hpp"

namespace osim::analysis {
namespace {

const McProgram& litmus(const std::string& name) {
  const McProgram* p = osim::find_mc_litmus(name);
  if (p == nullptr) throw std::runtime_error("unknown litmus " + name);
  return *p;
}

// Every schedule of the message-passing litmus must agree with the
// serial oracle; the tree is small enough to exhaust.
TEST(Explore, Mp2MatchesOracleExhaustively) {
  ExploreResult res = explore(litmus("mp2"), McOptions{});
  EXPECT_TRUE(res.complete);
  EXPECT_FALSE(res.violation_found) << res.example.violation_kind << ": "
                                    << res.example.violation_detail;
  EXPECT_GE(res.schedules, 2u);
  // The oracle itself is schedule-independent for a determinate program.
  ScheduleOutcome oracle = run_oracle(litmus("mp2"));
  EXPECT_EQ(oracle.checksum, res.first.checksum);
}

TEST(Explore, LockHandoffMatchesOracleExhaustively) {
  ExploreResult res = explore(litmus("lock_handoff"), McOptions{});
  EXPECT_TRUE(res.complete);
  EXPECT_FALSE(res.violation_found) << res.example.violation_kind << ": "
                                    << res.example.violation_detail;
  // The handoff exercises blocking: some schedule parks thread 1 on the
  // renamed version before thread 0 publishes it.
  EXPECT_GE(res.schedules, 2u);
}

// Three threads on disjoint slots: every cross-thread pair commutes, so
// sleep sets must prune strictly more than the naive enumeration runs.
TEST(Explore, SleepSetsReduceWide3) {
  McOptions por;
  McOptions naive;
  naive.por = false;
  ExploreResult rp = explore(litmus("wide3"), por);
  ExploreResult rn = explore(litmus("wide3"), naive);
  EXPECT_TRUE(rp.complete);
  EXPECT_TRUE(rn.complete);
  EXPECT_FALSE(rp.violation_found);
  EXPECT_FALSE(rn.violation_found);
  EXPECT_LT(rp.schedules, rn.schedules)
      << "POR explored " << rp.schedules << " vs naive " << rn.schedules;
}

// A preemption bound of zero only allows switches where the previous
// thread stopped being enabled — a strict subset of the full tree.
TEST(Explore, PreemptionBoundShrinksTheTree) {
  McOptions naive;
  naive.por = false;
  McOptions bounded = naive;
  bounded.preemption_bound = 0;
  ExploreResult full = explore(litmus("mp2"), naive);
  ExploreResult few = explore(litmus("mp2"), bounded);
  EXPECT_TRUE(few.complete);
  EXPECT_FALSE(few.violation_found);
  EXPECT_LT(few.schedules, full.schedules);
  EXPECT_GE(few.schedules, 1u);
}

// Exploration is a pure function of (program, options): repeated runs
// visit the same tree in the same order.
TEST(Explore, DeterministicAcrossRuns) {
  ExploreResult a = explore(litmus("mp2"), McOptions{});
  ExploreResult b = explore(litmus("mp2"), McOptions{});
  EXPECT_EQ(a.schedules, b.schedules);
  EXPECT_EQ(a.steps_total, b.steps_total);
  EXPECT_EQ(a.first.checksum, b.first.checksum);
  ASSERT_EQ(a.first.steps.size(), b.first.steps.size());
  for (std::size_t i = 0; i < a.first.steps.size(); ++i) {
    EXPECT_EQ(a.first.steps[i].tid, b.first.steps[i].tid);
    EXPECT_EQ(static_cast<int>(a.first.steps[i].kind),
              static_cast<int>(b.first.steps[i].kind));
    EXPECT_EQ(a.first.steps[i].obj, b.first.steps[i].obj);
  }
}

// Attaching the online protocol checker serializes reads (a different
// schedule space) but the protocol itself is clean in every schedule.
TEST(Explore, CheckedModeCleanOnMp2) {
  McOptions opt;
  opt.checked = true;
  ExploreResult res = explore(litmus("mp2"), opt);
  EXPECT_TRUE(res.complete);
  EXPECT_FALSE(res.violation_found) << res.example.violation_kind << ": "
                                    << res.example.violation_detail;
}

// The reclaim-vs-insert window litmus is clean on the correct engine:
// allocation happens before the walk, so mid-store retirement can never
// corrupt the chain. (The seeded build flips this; see
// test_explore_seeded.cpp.)
TEST(Explore, GcFenceCleanOnCorrectEngine) {
  ExploreResult res = explore(litmus("gc_fence"), McOptions{});
  EXPECT_TRUE(res.complete);
  EXPECT_FALSE(res.violation_found) << res.example.violation_kind << ": "
                                    << res.example.violation_detail;
}

// A task created after every earlier task ended must keep the versions
// it can read: the reclaim pass computes its floor from the unfinished
// tasks, so task 3 reads version 1 in every schedule, like the oracle.
// (The seeded build caches the floor at TASK-END; see
// test_explore_seeded.cpp.)
TEST(Explore, LateCreateCleanOnCorrectEngine) {
  for (const bool por : {true, false}) {
    McOptions opt;
    opt.por = por;
    ExploreResult res = explore(litmus("late_create"), opt);
    EXPECT_TRUE(res.complete);
    EXPECT_FALSE(res.violation_found) << res.example.violation_kind << ": "
                                      << res.example.violation_detail;
    ASSERT_EQ(res.first.results.size(), 2u);
    ASSERT_EQ(res.first.results[1].size(), 4u);
    EXPECT_EQ(res.first.results[1][3].tag, 'v');
    EXPECT_EQ(res.first.results[1][3].got, 1u);
  }
}

// TASK-BEGIN and TASK-END of tasks on different stripes take different
// stripe mutexes and commute, so sleep sets prune the task-only program;
// every schedule still agrees with the oracle.
TEST(Explore, TaskOpsOnDifferentStripesCommute) {
  McProgram p;
  p.name = "task_stripes";
  p.cfg.shards = 1;
  p.cfg.max_threads = 3;
  auto task = [](OpCode which, TaskId t) {
    McOp op;
    op.op = which;
    op.task = t;
    return op;
  };
  // Created up front, so the threads' TASK-BEGINs never reach creation.
  p.setup = {task(OpCode::kTaskBegin, 1), task(OpCode::kTaskBegin, 2)};
  p.threads = {
      {task(OpCode::kTaskBegin, 1), task(OpCode::kTaskEnd, 1)},
      {task(OpCode::kTaskBegin, 2), task(OpCode::kTaskEnd, 2)},
  };
  McOptions por;
  McOptions naive;
  naive.por = false;
  ExploreResult rp = explore(p, por);
  ExploreResult rn = explore(p, naive);
  EXPECT_TRUE(rp.complete);
  EXPECT_TRUE(rn.complete);
  EXPECT_FALSE(rp.violation_found) << rp.example.violation_kind << ": "
                                   << rp.example.violation_detail;
  EXPECT_FALSE(rn.violation_found) << rn.example.violation_kind << ": "
                                   << rn.example.violation_detail;
  EXPECT_LT(rp.schedules, rn.schedules)
      << "POR explored " << rp.schedules << " vs naive " << rn.schedules;
}

// Registration overflow on the clean engine is an orderly engine error,
// not a bound violation.
TEST(Explore, CtxBoundCleanOnCorrectEngine) {
  ExploreResult res = explore(litmus("ctx_bound"), McOptions{});
  EXPECT_TRUE(res.complete);
  EXPECT_FALSE(res.violation_found) << res.example.violation_kind << ": "
                                    << res.example.violation_detail;
}

// Guaranteed deadlock: the scheduler's lowest-tid victim cascade must
// mirror the oracle's no-progress rule in every schedule, so both ops
// fault identically everywhere.
TEST(Explore, DeadlockCascadeMatchesOracle) {
  ExploreResult res = explore(litmus("deadlock_pair"), McOptions{});
  EXPECT_TRUE(res.complete);
  EXPECT_FALSE(res.violation_found) << res.example.violation_kind << ": "
                                    << res.example.violation_detail;
  ASSERT_EQ(res.first.results.size(), 2u);
  EXPECT_EQ(res.first.results[0][0].tag, 'f');
  EXPECT_EQ(res.first.results[1][0].tag, 'f');
}

// Serialize -> parse -> replay -> serialize must be byte-identical, and
// the replayed outcome must carry the recorded checksum.
TEST(Replay, RoundTripIsByteIdentical) {
  const McProgram& prog = litmus("mp2");
  McOptions opt;
  ExploreResult res = explore(prog, opt);
  const std::string text = serialize_schedule(prog, opt, res.first);
  ReplayFile file = parse_schedule(text);
  EXPECT_EQ(file.program, "mp2");
  EXPECT_EQ(file.steps.size(), res.first.steps.size());
  ScheduleOutcome out = replay_schedule(prog, opt, file);
  EXPECT_EQ(out.checksum, res.first.checksum);
  EXPECT_EQ(serialize_schedule(prog, opt, out), text);
}

// A tampered schedule — a step handed to a thread that is not at the
// recorded point — must fail loudly, not execute something else.
TEST(Replay, DivergenceIsDetected) {
  const McProgram& prog = litmus("mp2");
  McOptions opt;
  ExploreResult res = explore(prog, opt);
  ReplayFile file = parse_schedule(serialize_schedule(prog, opt, res.first));
  ASSERT_GE(file.steps.size(), 2u);
  // First decision is a thread-start pick; rewriting its label to a
  // shard acquire cannot match any live candidate.
  file.steps[0].kind = SchedKind::kShardAcquire;
  file.steps[0].obj = 7;
  EXPECT_THROW(replay_schedule(prog, opt, file), std::runtime_error);
}

TEST(Replay, TruncatedScheduleIsDetected) {
  const McProgram& prog = litmus("mp2");
  McOptions opt;
  ExploreResult res = explore(prog, opt);
  ReplayFile file = parse_schedule(serialize_schedule(prog, opt, res.first));
  file.steps.resize(file.steps.size() / 2);
  EXPECT_THROW(replay_schedule(prog, opt, file), std::runtime_error);
}

// A replay recorded against a seeded engine must refuse to run against
// a clean one (and vice versa) instead of silently "passing".
TEST(Replay, SeededBuildMismatchIsRejected) {
  const McProgram& prog = litmus("mp2");
  McOptions opt;
  ExploreResult res = explore(prog, opt);
  McOptions recorded = opt;
  recorded.seeded = 1;
  ReplayFile file =
      parse_schedule(serialize_schedule(prog, recorded, res.first));
  EXPECT_EQ(file.seeded, 1);
  EXPECT_THROW(replay_schedule(prog, opt, file), std::runtime_error);
}

TEST(Replay, MalformedFilesAreRejected) {
  const char* bad[] = {
      "",
      "not-a-schedule\n",
      "osim-mc-schedule v2\nprogram mp2\n",
      "osim-mc-schedule v1\nprogram mp2\nchecked 0\nseeded 0\nsteps 1\n",
      "osim-mc-schedule v1\nprogram mp2\nchecked 0\nseeded 0\nsteps 1\n"
      "0 0 bogus-kind 0\nchecksum 0\nviolation 0 -\nend\n",
      "osim-mc-schedule v1\nprogram mp2\nchecked 0\nseeded 0\nsteps 1\n"
      "0 0 thread-start 0\nchecksum nothex\nviolation 0 -\nend\n",
      "osim-mc-schedule v1\nprogram mp2\nchecked 2\nseeded 0\nsteps 0\n"
      "checksum 0\nviolation 0 -\nend\n",
  };
  for (const char* text : bad) {
    EXPECT_THROW(parse_schedule(text), std::runtime_error)
        << "accepted: " << text;
  }
}

}  // namespace
}  // namespace osim::analysis
