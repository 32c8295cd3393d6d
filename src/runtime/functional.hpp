// The functional backend: host-speed execution of the versioned ISA.
//
// The same VersionStore engine that drives the cycle-accurate machine runs
// here against a TimingModel that charges nothing: no fibers, no cache
// models, no wait lists — just the authoritative version lists and a logical
// clock that counts versioned operations (so trace events still carry a
// monotonic timestamp and `elapsed()` means "ops executed"). Telemetry and
// the protocol checker attach exactly as on the timed backend, so osim-check
// validates functional runs too.
//
// Scheduling. Spawned bodies execute to completion in spawn order on the
// host thread. The root-ticket protocol the workloads use gives every task
// forward-only dependencies (task t reads versions <= t and publishes t), so
// executing tasks in creation order never needs to block. An operation that
// *would* block under this schedule (a load of a version no earlier task
// ever stores, a lock held by a later task) can never be satisfied: the
// engine's wait_on_slot turns it into an OFault(kWouldBlock), the functional
// analogue of the timed backend's deadlock report.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/fault.hpp"
#include "core/version_store.hpp"
#include "sim/config.hpp"
#include "sim/machine.hpp"  // SimError; no Machine is ever constructed here
#include "telemetry/metrics.hpp"

namespace osim {

/// TimingModel that charges nothing: the logical clock ticks once per
/// serialized operation, every cost hook is a no-op, and blocking faults.
class FunctionalTiming final : public TimingModel {
 public:
  /// Pure no-cost model: hand the engine the devirtualized hot path.
  TimingFastPath* fast_path() override { return &fp_; }

  bool in_op_context() const override { return true; }
  Cycles now() const override { return fp_.clock; }
  CoreId core() const override { return fp_.core; }

  void op_serialize() override { ++fp_.clock; }
  void op_overhead() override {}
  void task_instr() override {}

  void wait_on_slot(const WaitContext& w) override {
    throw OFault(FaultKind::kWouldBlock,
                 std::string(to_string(w.op)) + " of version " +
                     std::to_string(w.version) + " on slot " +
                     std::to_string(w.slot) + " by task " +
                     std::to_string(w.task) +
                     " cannot be satisfied by any earlier operation");
  }
  void wake_slot(std::uint64_t) override {}

  void lookup_done(std::uint64_t, const FindResult&, bool, Ver, bool,
                   std::optional<TaskId>) override {}
  void lock_applied(std::uint64_t, Ver, TaskId) override {}
  void unlock_applied(std::uint64_t, BlockIndex, Ver) override {}

  void free_list_access() override {}
  void gc_triggered() override {}
  void os_trapped() override {}
  void block_allocated(BlockIndex) override {}

  void store_charged(std::uint64_t, const InsertResult&, BlockIndex) override {
  }
  void block_shadowed(BlockIndex) override {}
  void store_installed(std::uint64_t, const CompressedLine::Entry&) override {}

  void block_reclaimed(BlockIndex, std::uint64_t, Ver) override {}
  void slot_released(std::uint64_t) override {}

  /// Logical core id stamped into trace events (the id the body was spawned
  /// on, so functional event streams are attributed like timed ones).
  void set_core(CoreId c) { fp_.core = c; }
  Cycles clock() const { return fp_.clock; }

 private:
  TimingFastPath fp_;
};

/// A VersionStore bound to FunctionalTiming, with a spawn/run surface shaped
/// like Machine's so Env can drive either interchangeably.
class FunctionalBackend {
 public:
  explicit FunctionalBackend(const MachineConfig& cfg)
      : cfg_(cfg),
        registry_(cfg.num_cores),
        store_(cfg.ostruct, cfg.num_cores, registry_, timing_) {}

  FunctionalBackend(const FunctionalBackend&) = delete;
  FunctionalBackend& operator=(const FunctionalBackend&) = delete;

  VersionStore& store() { return store_; }
  FunctionalTiming& timing() { return timing_; }
  const MachineConfig& config() const { return cfg_; }

  /// Queue a body for `core`. Bodies run in spawn order, each to completion.
  void spawn(CoreId core, std::function<void()> body) {
    bodies_.emplace_back(core, std::move(body));
  }

  /// Execute every queued body. Like the timed machine, a simulated fault
  /// escaping a body aborts the run as a SimError with the same message.
  void run() {
    for (auto& [core, body] : bodies_) {
      timing_.set_core(core);
      try {
        body();
      } catch (const SimError&) {
        throw;
      } catch (const std::exception& e) {
        throw SimError(e.what());
      }
    }
    bodies_.clear();
  }

  /// Logical clock: versioned operations executed so far.
  Cycles elapsed() const { return timing_.clock(); }

 private:
  MachineConfig cfg_;
  telemetry::MetricRegistry registry_;
  FunctionalTiming timing_;
  VersionStore store_;
  std::vector<std::pair<CoreId, std::function<void()>>> bodies_;
};

}  // namespace osim
