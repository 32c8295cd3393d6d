// VersionEngine: the backend-agnostic facade over the two semantic engines.
//
// The versioned-ISA semantics of the paper live in two implementations with
// deliberately different synchronization cores: the serial VersionStore
// (core/version_store.hpp — single-threaded by contract, drives both the
// cycle-accurate machine and the functional backend through a pluggable
// TimingModel) and the ConcurrentVersionStore (core/concurrent_store.hpp —
// lock-striped shards, per-slot seqlocks, epoch reclamation, for real host
// threads). Everything *around* that core — the ISA surface, task
// lifecycle, abort accounting, fault injection, trace emission, protocol
// checking — is shared semantics, and this interface is where consumers
// (bench driver, chaos harness, differential tests, the future KV front
// end) bind to it without knowing which engine they drive.
//
// Two call styles:
//   * per-op virtuals — the classic ISA surface, one virtual call per op;
//   * execute(batch) — a batched driver over the same virtuals taking the
//     opstream record the workload generators already emit (analysis::VOp
//     is an alias of VersionEngine::Op). Faults are captured per op into
//     Results and execution continues, which is exactly what the
//     differential tests and retrying drivers want; the KV front end's
//     get/put/snapshot-read/CAS map 1:1 onto these batches.
//
// Layering (enforced by tools/run-lint.sh): core/ depends on telemetry/
// and itself only — never on runtime/, sim/, bench/, or analysis/. The
// facade therefore defines the op record; the analysis layer aliases it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/fault.hpp"
#include "core/isa.hpp"
#include "core/types.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace osim {

class FaultInjector;

/// User-visible address of an O-structure slot (8-byte granularity inside
/// the versioned region). Defined here, at the facade, so both engines and
/// every consumer share one alias.
using OAddr = Addr;

class VersionEngine {
 public:
  /// One abstract versioned op — the batched-execution record and the
  /// opstream record the workload generators emit (analysis::VOp aliases
  /// this type). `version` is the exact version stored, loaded, or locked
  /// (the task id for TASK-BEGIN/END); `cap` is the bound of the *-LATEST
  /// forms; `rename_to` is UNLOCK-VERSION's optional new version; `data`
  /// is STORE-VERSION's payload (ignored by the static checker).
  struct Op {
    OpCode op{};
    Addr addr = 0;
    Ver version = 0;
    Ver cap = 0;
    TaskId task = 0;
    std::optional<Ver> rename_to;
    std::uint64_t data = 0;
  };

  /// Observable outcome of an executed batch. Two batches are equivalent
  /// iff their Results compare equal field-for-field (messages excepted:
  /// the engines word their would-block reports differently, so equality
  /// compares fault positions and kinds only).
  struct Results {
    struct Fault {
      std::size_t index = 0;  ///< batch index of the faulted op
      FaultKind kind{};
      std::string message;  ///< engine wording; excluded from operator==

      friend bool operator==(const Fault& a, const Fault& b) {
        return a.index == b.index && a.kind == b.kind;
      }
    };

    std::vector<std::uint64_t> reads;  ///< one value per completed load
    std::vector<Ver> found;            ///< version observed per *-LATEST
    std::vector<Fault> faults;         ///< per-op faults, batch order
    std::uint64_t executed = 0;        ///< ops completed without fault

    void clear() {
      reads.clear();
      found.clear();
      faults.clear();
      executed = 0;
    }

    /// Order-sensitive fold of every observable (for cross-engine and
    /// per-op-vs-batched checksum comparisons).
    std::uint64_t checksum() const;

    friend bool operator==(const Results& a, const Results& b) {
      return a.reads == b.reads && a.found == b.found &&
             a.faults == b.faults && a.executed == b.executed;
    }
  };

  virtual ~VersionEngine() = default;

  // ---- O-structure allocation (the OS/runtime interface) ----
  virtual OAddr alloc(std::size_t slots) = 0;
  virtual void release(OAddr base, std::size_t slots) = 0;

  // ---- The versioned ISA ----
  // (Default arguments repeat on the engines' overrides — same values, so
  // the statically bound defaults agree no matter the static type.)
  virtual std::uint64_t load_version(OAddr a, Ver v) = 0;
  virtual std::uint64_t load_latest(OAddr a, Ver cap, Ver* found = nullptr) = 0;
  virtual void store_version(OAddr a, Ver v, std::uint64_t data) = 0;
  virtual std::uint64_t lock_load_version(OAddr a, Ver v, TaskId locker) = 0;
  virtual std::uint64_t lock_load_latest(OAddr a, Ver cap, TaskId locker,
                                         Ver* found = nullptr) = 0;
  virtual void unlock_version(OAddr a, Ver locked_v, TaskId owner,
                              std::optional<Ver> rename_to = {}) = 0;

  // ---- Task lifecycle (GC rules #1-#3) ----
  virtual void task_created(TaskId t) = 0;
  virtual void task_begin(TaskId t) = 0;
  virtual void task_end(TaskId t) = 0;
  /// Roll back task `t`'s stores and locks, newest first (see
  /// core/undo_journal.hpp for the shared invariant). Requires the
  /// engine's track_aborts config.
  virtual void abort_task(TaskId t) = 0;

  // ---- Protection ----
  virtual bool is_versioned_addr(Addr a) const = 0;
  virtual void check_conventional(Addr a) const = 0;

  // ---- Host-side inspection (no timing; tests and tools) ----
  virtual std::optional<std::uint64_t> peek_version(OAddr a, Ver v) = 0;
  virtual std::optional<Ver> newest_version(OAddr a) = 0;
  virtual std::optional<TaskId> lock_holder(OAddr a, Ver v) = 0;
  virtual int version_count(OAddr a) = 0;

  // ---- Shared seams ----
  /// The one counter record: the registry the engine counts into, under
  /// the same names on either engine (the osm/ abort counters only with
  /// track_aborts). Retrying runtimes add their runtime/* counters here.
  virtual telemetry::MetricRegistry& metrics() = 0;
  /// The engine's event-trace dispatcher. Attaching a sink is how the
  /// protocol checker rides any engine (analysis::attach_checker); on the
  /// concurrent engine the first call switches it into linearized-trace
  /// mode (reads serialized), so call it only when events are wanted, and
  /// before any ISA op runs.
  virtual telemetry::Tracer& tracer() = 0;
  /// Fault-injection seam: the attached injector, or null when detached.
  virtual FaultInjector* fault_injector() = 0;
  /// Attach an externally owned injector (tests/tools); replaces any
  /// config-built one at every engine site. Call before ISA ops run.
  virtual void attach_fault_injector(FaultInjector* inj) = 0;

  // ---- Batched op execution ----
  /// Execute `batch` in order through the per-op surface. An OFault fails
  /// only the op that raised it — it is recorded in `out.faults` and
  /// execution continues with the next op, matching the per-op call sites
  /// that catch-and-continue today. Results are appended (call
  /// out.clear() for a fresh batch). Non-virtual: the loop *is* the
  /// facade contract, identical over every engine.
  void execute(std::span<const Op> batch, Results& out);
};

}  // namespace osim
