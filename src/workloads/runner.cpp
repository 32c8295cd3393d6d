#include "workloads/runner.hpp"

namespace osim {

std::vector<Ver> prev_mutator_versions(const std::vector<Op>& ops) {
  std::vector<Ver> prev(ops.size());
  Ver last = kSetupVersion;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    prev[i] = last;
    if (is_mutator(ops[i].kind)) last = kFirstTaskId + i;
  }
  return prev;
}

RunResult run_sequential(Env& env, std::function<void()> setup,
                         std::function<std::uint64_t()> ops) {
  RunResult result;
  env.spawn(0, [&] {
    setup();
    const Cycles t0 = env.now();
    result.checksum = ops();
    result.cycles = env.now() - t0;
  });
  env.run();
  return result;
}

RunResult run_tasked(Env& env, int cores, std::function<void()> setup,
                     std::function<void(TaskRuntime&)> make_tasks,
                     std::function<std::uint64_t()> finalize) {
  TaskRuntime rt(env, cores);
  rt.set_setup(std::move(setup));
  make_tasks(rt);
  RunResult result;
  result.cycles = rt.run();
  if (finalize) result.checksum = finalize();
  return result;
}

RunResult run_task_per_op(Env& env, const DsSpec& spec, int cores,
                          std::function<void()> setup, OpTask op_task) {
  const std::vector<Op> ops = generate_ops(spec);
  const std::vector<Ver> prevs = prev_mutator_versions(ops);
  std::vector<std::uint64_t> results(ops.size());
  return run_tasked(
      env, cores, std::move(setup),
      [&](TaskRuntime& rt) {
        for (std::size_t i = 0; i < ops.size(); ++i) {
          rt.create_task(kFirstTaskId + i, [&, i](TaskId tid) {
            results[i] = op_task(tid, prevs[i], ops[i]);
          });
        }
      },
      [&] {
        std::uint64_t sum = 0;
        for (std::uint64_t r : results) mix(sum, r);
        return sum;
      });
}

}  // namespace osim
