// osim-mc: systematic interleaving exploration for the concurrent engine.
//
// The concurrent store's bugs are schedule-dependent: TSan and the stress
// tests only witness the interleavings the host OS happens to produce.
// This module runs small op-stream programs (McProgram) through
// ConcurrentVersionStore under a *controlled cooperative scheduler* — a
// ScheduleHook (core/schedule_point.hpp) that suspends every program
// thread at each scheduling-relevant transition and lets a chooser decide
// who runs next — and enumerates the interleavings systematically:
//
//   * exhaustive DFS over the schedule tree, stateless-model-checking
//     style: each schedule is a fresh store + fresh host threads, driven
//     down a forced decision prefix and then extended by a deterministic
//     default rule; backtracking flips the deepest unexplored choice;
//   * sleep-set partial-order reduction (Godefroid): after exploring
//     thread t from a state, t sleeps for the remaining siblings, and
//     sleepers survive into the child state while they stay independent
//     of the chosen transition — so each Mazurkiewicz trace is explored
//     once instead of once per commuting permutation;
//   * an optional preemption bound (CHESS-style) for larger programs:
//     schedules are limited to N context switches at points where the
//     previously running thread was still enabled.
//
// Every explored schedule is validated three ways: structural integrity
// of the version chains (ConcurrentVersionStore::check_integrity), the
// protocol checker over the linearized event stream (analysis/checker.*,
// checked mode), and equivalence of per-op results / faults / checksum
// against the serial VersionStore oracle executed by the functional
// timing model. Any schedule serializes to a small text replay file that
// re-executes deterministically (`osim-mc --replay`), so a failing
// interleaving is a one-command repro — the schedule-capture substrate of
// ROADMAP item 3.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/concurrent_store.hpp"
#include "core/isa.hpp"
#include "core/schedule_point.hpp"
#include "core/types.hpp"

namespace osim::analysis {

// ---------------------------------------------------------------------------
// Programs

/// One versioned-ISA operation of a model-checked program. `slot` is an
/// index into the program's O-structure allocation; task ops ignore it.
struct McOp {
  OpCode op = OpCode::kLoadVersion;
  std::uint64_t slot = 0;
  Ver version = 0;  ///< exact version (loads/locks/stores/unlocks)
  Ver cap = 0;      ///< upper bound for the -LATEST forms
  TaskId task = 0;  ///< locker for lock ops, task id for task ops
  std::optional<Ver> rename_to;  ///< UNLOCK-VERSION rename target
  std::uint64_t data = 0;  ///< stored payload; 0 = mc_data(slot, version)
};

/// A litmus program: per-thread op sequences over a small slot array.
/// Programs meant for oracle comparison must be *determinate* — every
/// read names (directly or via a cap) a version written exactly once —
/// so all schedules produce the same per-op results.
struct McProgram {
  std::string name;
  std::string summary;
  std::size_t nslots = 1;
  ConcurrencyConfig cfg;
  std::vector<McOp> setup;  ///< run on the driver thread, unscheduled
  std::vector<std::vector<McOp>> threads;
  /// Reclamation can fire (tiny reclaim_threshold): epoch/floor state
  /// couples every transition, so the reducer claims no independence.
  bool gc_active = false;
  /// Compare surviving (slot, version, value) triples across schedules.
  /// Off for gc programs, where reclamation timing legally varies.
  bool compare_final_state = true;
  /// Validate results against the serial VersionStore oracle.
  bool use_oracle = true;
  /// Engine errors (std::exception from an op) are expected and per-op
  /// results vary by schedule: skip outcome comparison (ctx_bound).
  bool expect_engine_errors = false;
};

/// Run `p` under fault plan `spec` (no-op when empty). Per-op results then
/// vary by schedule, so outcome comparison (oracle and self-reference) is
/// off; chain integrity and, when checked, the protocol invariants hold.
void inject_faults(McProgram& p, const std::string& spec);

/// Deterministic payload for version `v` of `slot` (never 0, so McOp::data
/// == 0 can mean "default"). Both the concurrent run and the oracle store
/// these values, making read results comparable across engines.
std::uint64_t mc_data(std::uint64_t slot, Ver v);

// ---------------------------------------------------------------------------
// Outcomes

/// Result of one program op: 'v' = value, 'f' = simulated fault (text is
/// the stable FaultKind name), 'e' = engine error (text is the message).
struct OpResult {
  char tag = 'v';
  std::uint64_t value = 0;  ///< data read / stored
  Ver got = 0;              ///< version read / created
  std::string text;
};

/// One recorded scheduling decision: thread `tid` was granted execution at
/// the announced point. Granting runs the thread up to its next announce.
struct ScheduleStep {
  int tid = 0;
  SchedKind kind = SchedKind::kThreadStart;
  std::uint64_t obj = 0;
};

struct ScheduleOutcome {
  std::vector<ScheduleStep> steps;
  std::vector<std::vector<OpResult>> results;  ///< [thread][op index]
  /// Surviving (slot, version, value) triples, slot-major ascending.
  std::vector<std::array<std::uint64_t, 3>> final_state;
  std::uint64_t checksum = 0;  ///< FNV-1a over results (+ final state)
  bool violation = false;
  std::string violation_kind;  ///< "integrity", "ctx-overshoot", ...
  std::string violation_detail;
};

struct McOptions {
  bool por = true;           ///< sleep-set reduction (false = naive DFS)
  int preemption_bound = -1; ///< max preemptive switches; -1 = unbounded
  std::uint64_t max_schedules = 1u << 20;
  bool checked = false;  ///< attach tracer + protocol checker (serializes
                         ///< reads, so the schedule space differs)
  /// OSIM_MC_SEEDED_BUG value compiled into the engine driving this
  /// exploration (0 = production engine). Recorded in replay files and
  /// validated on replay so a fixture never silently runs against the
  /// wrong build.
  int seeded = 0;
  bool stop_on_violation = true;
};

struct ExploreResult {
  std::uint64_t schedules = 0;    ///< complete executions run
  std::uint64_t steps_total = 0;  ///< scheduling decisions across them
  std::uint64_t max_depth = 0;    ///< longest schedule
  bool complete = false;          ///< tree exhausted (not capped)
  bool violation_found = false;
  ScheduleOutcome first;    ///< first schedule explored (fixture source)
  ScheduleOutcome example;  ///< first violating schedule, else the last
};

/// Systematically explore `prog`'s interleavings. Violations checked per
/// schedule, in order: registered-thread bound, engine errors, chain
/// integrity, protocol checker (checked mode), then result/final-state
/// equivalence against the reference (serial oracle when use_oracle, else
/// the first explored schedule).
ExploreResult explore(const McProgram& prog, const McOptions& opt);

/// Execute `prog` on the serial VersionStore under FunctionalTiming, the
/// reference semantics. Threads round-robin one op at a time, skipping ops
/// that would block; a round with no progress faults the lowest-tid
/// blocked op (the deterministic mirror of the scheduler's deadlock
/// victim). `steps` is left empty.
ScheduleOutcome run_oracle(const McProgram& prog);

// ---------------------------------------------------------------------------
// Record / replay

/// Parsed form of a replay file.
struct ReplayFile {
  std::string program;
  bool checked = false;
  int seeded = 0;
  /// Fault-injection spec the schedule was recorded under (the optional
  /// "inject <spec>" header line; empty = none, and the line is omitted so
  /// pre-injection fixtures parse unchanged).
  std::string inject;
  std::vector<ScheduleStep> steps;
  std::uint64_t checksum = 0;
  bool violation = false;
  std::string violation_kind;
};

/// Serialize one explored schedule to the replay-file text format
/// (versioned header, one line per decision, checksum, violation verdict).
std::string serialize_schedule(const McProgram& prog, const McOptions& opt,
                               const ScheduleOutcome& out);

/// Parse a replay file; throws std::runtime_error with a line-numbered
/// message on any malformation.
ReplayFile parse_schedule(const std::string& text);

/// Re-execute a recorded schedule deterministically. Every decision is
/// forced to the recorded thread after validating that the thread really
/// is schedulable at the recorded point; any divergence (wrong label,
/// wrong enabled set, too few/many steps) throws std::runtime_error.
/// Byte-identical reproduction means serialize_schedule() of the returned
/// outcome equals the original file text.
ScheduleOutcome replay_schedule(const McProgram& prog, const McOptions& opt,
                                const ReplayFile& file);

/// Human-readable one-line digest ("6 ops, 2 faults, checksum ...").
std::string summarize_outcome(const ScheduleOutcome& out);

}  // namespace osim::analysis
