// Seeded-bug regression: this binary links a concurrent engine compiled
// with OSIM_MC_SEEDED_BUG (1 = the PR-6 alloc-after-walk reclaim race,
// 2 = the PR-6 context-registration overshoot, 3 = the GC floor cached at
// TASK-END, which a task created after every task ended does not lower),
// and asserts that exhaustive exploration of the matching litmus *finds*
// a violating schedule — i.e. the harness would have caught each of these
// bugs — and that the recorded schedule replays to a byte-identical
// reproduction.
//
// The build recompiles src/core/concurrent_store.cpp into this
// executable with the macro set; the linker prefers those definitions
// over the clean archive members in libosim_core.a.
#include <gtest/gtest.h>

#include <string>

#include "analysis/explore.hpp"
#include "workloads/opstream.hpp"

#if !defined(OSIM_MC_SEEDED_BUG)
#error "test_explore_seeded.cpp requires -DOSIM_MC_SEEDED_BUG=1|2|3"
#endif

namespace osim::analysis {
namespace {

struct SeedCase {
  const char* program;
  const char* kind;  ///< expected violation_kind
};

constexpr SeedCase kCase =
#if OSIM_MC_SEEDED_BUG == 1
    // Walk-then-allocate: reclamation during the third store's allocation
    // hands back the block the walk chose as the insert position, forging
    // a self-loop that chain-integrity auditing flags.
    {"gc_fence", "integrity"};
#elif OSIM_MC_SEEDED_BUG == 3
    // Stale floor: the reclaim pass of task 3's store frees version 1,
    // which task 3 can still read, so its LOAD-LATEST faults where the
    // serial oracle returns version 1.
    {"late_create", "outcome-divergence"};
#else
    // fetch_add past max_threads: the bound audit sees more registered
    // contexts than the configuration admits.
    {"ctx_bound", "ctx-overshoot"};
#endif

McOptions seeded_options() {
  McOptions opt;
  opt.seeded = OSIM_MC_SEEDED_BUG;
  return opt;
}

TEST(SeededBug, ExplorationFindsAViolatingSchedule) {
  const McProgram* prog = osim::find_mc_litmus(kCase.program);
  ASSERT_NE(prog, nullptr);
  ExploreResult res = explore(*prog, seeded_options());
  ASSERT_TRUE(res.violation_found)
      << "seeded bug " << OSIM_MC_SEEDED_BUG << " not detected in "
      << res.schedules << " schedules";
  EXPECT_EQ(res.example.violation_kind, kCase.kind)
      << res.example.violation_detail;
}

// The detection must be stable: same tree, same first violating schedule.
TEST(SeededBug, DetectionIsDeterministic) {
  const McProgram* prog = osim::find_mc_litmus(kCase.program);
  ASSERT_NE(prog, nullptr);
  ExploreResult a = explore(*prog, seeded_options());
  ExploreResult b = explore(*prog, seeded_options());
  ASSERT_TRUE(a.violation_found);
  ASSERT_TRUE(b.violation_found);
  EXPECT_EQ(a.schedules, b.schedules);
  EXPECT_EQ(serialize_schedule(*prog, seeded_options(), a.example),
            serialize_schedule(*prog, seeded_options(), b.example));
}

// The violating schedule round-trips: record it, replay it, and the
// reproduction — including the violation verdict — is byte-identical.
TEST(SeededBug, ViolatingScheduleReplaysByteIdentically) {
  const McProgram* prog = osim::find_mc_litmus(kCase.program);
  ASSERT_NE(prog, nullptr);
  McOptions opt = seeded_options();
  ExploreResult res = explore(*prog, opt);
  ASSERT_TRUE(res.violation_found);
  const std::string text = serialize_schedule(*prog, opt, res.example);
  ReplayFile file = parse_schedule(text);
  EXPECT_EQ(file.seeded, OSIM_MC_SEEDED_BUG);
  EXPECT_TRUE(file.violation);
  ScheduleOutcome out = replay_schedule(*prog, opt, file);
  EXPECT_TRUE(out.violation);
  EXPECT_EQ(out.violation_kind, kCase.kind);
  EXPECT_EQ(serialize_schedule(*prog, opt, out), text);
}

}  // namespace
}  // namespace osim::analysis
