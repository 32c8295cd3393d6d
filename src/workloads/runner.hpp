// Shared measurement harness for the workloads.
//
// Every experiment run has an *unmeasured* setup phase (pre-populating the
// structure, Sec. IV-A) followed by the measured operations. In parallel
// runs, core 0 executes the setup while the other workers park on a start
// gate; measured time is the span from setup completion to the last
// worker's finish. Sequential runs time the op loop directly.
//
// The data-structure workloads (Sec. IV-D) all run the same way: populate,
// then the spec's seeded op mix, either in order on core 0 or as one task
// per op entering through the root ticket. The two op drivers below are
// that loop, written once; a structure only supplies the uniform interface
// apply_op() dispatches to.
#pragma once

#include <functional>

#include "runtime/env.hpp"
#include "runtime/task.hpp"
#include "workloads/opgen.hpp"
#include "workloads/opstream.hpp"

namespace osim {

/// Task IDs: population/setup uses version kSetupVersion; measured tasks
/// start at kFirstTaskId, one per operation.
inline constexpr Ver kSetupVersion = 1;
inline constexpr TaskId kFirstTaskId = 2;

/// For each op index, the root-ticket version published by the closest
/// preceding *mutating* op (kSetupVersion when none): task i enters the
/// structure against version prev[i]; see TicketRoot.
std::vector<Ver> prev_mutator_versions(const std::vector<Op>& ops);

/// Run `setup` then `ops` sequentially on core 0; returns the cycles spent
/// in `ops` only.
RunResult run_sequential(Env& env, std::function<void()> setup,
                         std::function<std::uint64_t()> ops);

/// Parallel task-based run: core 0 executes `setup`, then `cores` workers
/// drain the tasks created by `make_tasks`. Returns measured cycles (from
/// setup completion to last task completion). `finalize` runs on the host
/// after completion and folds per-task results (indexed by task id, so the
/// checksum is independent of scheduling) into the result checksum.
RunResult run_tasked(Env& env, int cores, std::function<void()> setup,
                     std::function<void(TaskRuntime&)> make_tasks,
                     std::function<std::uint64_t()> finalize);

/// Run `op` against a structure's uniform interface: lookup, insert and
/// erase take (ctx..., key), scan takes (ctx..., key, range). `ctx` is
/// empty for an unversioned structure and (tid, prev) for a versioned one.
template <typename S, typename... Ctx>
std::uint64_t apply_op(S& s, const Op& op, int scan_range, Ctx... ctx) {
  switch (op.kind) {
    case OpKind::kLookup:
      return s.lookup(ctx..., op.key);
    case OpKind::kScan:
      return s.scan(ctx..., op.key, scan_range);
    case OpKind::kInsert:
      return s.insert(ctx..., op.key);
    case OpKind::kDelete:
      return s.erase(ctx..., op.key);
  }
  return 0;
}

/// The sequential op driver: on core 0, `s.populate(initial_keys(spec))`
/// unmeasured, then spec's ops in order, their results folded with mix().
template <typename S>
RunResult run_ops_sequential(Env& env, const DsSpec& spec, S& s) {
  const std::vector<Op> ops = generate_ops(spec);
  return run_sequential(
      env, [&] { s.populate(initial_keys(spec)); },
      [&] {
        std::uint64_t sum = 0;
        for (const Op& op : ops) mix(sum, apply_op(s, op, spec.scan_range));
        return sum;
      });
}

/// The body of one op's task: its result for `op`, run as task `tid`
/// entering the structure against root version `prev`.
using OpTask = std::function<std::uint64_t(TaskId tid, Ver prev, const Op&)>;

/// The task-per-op driver: core 0 runs `setup`, then op i of spec runs as
/// task kFirstTaskId + i on `cores` workers, entering against
/// prev_mutator_versions()[i]. The per-task results are folded with mix()
/// in task-id order.
RunResult run_task_per_op(Env& env, const DsSpec& spec, int cores,
                          std::function<void()> setup, OpTask op_task);

/// The task-per-op driver over a versioned structure: the static protocol
/// check of spec's stream, then `s.populate(initial_keys(spec))` as the
/// setup and apply_op(s, op, range, tid, prev) as each task's body.
template <typename S>
RunResult run_ops_versioned(Env& env, const DsSpec& spec, int cores, S& s) {
  static_check_workload(env, spec);
  return run_task_per_op(
      env, spec, cores, [&] { s.populate(initial_keys(spec)); },
      [&](TaskId tid, Ver prev, const Op& op) {
        return apply_op(s, op, spec.scan_range, tid, prev);
      });
}

}  // namespace osim
