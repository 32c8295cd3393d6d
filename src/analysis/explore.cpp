#include "analysis/explore.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "analysis/checker.hpp"
#include "core/fault.hpp"
#include "core/version_store.hpp"
#include "runtime/functional.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace osim::analysis {

namespace {

// ---------------------------------------------------------------------------
// Cooperative scheduler
//
// One program thread runs at a time. A thread granted execution at a
// decision point runs *everything* up to its next announced point (its
// "segment"); the recorded label names where the segment began. Decision
// points are: a thread's first scheduling (kThreadStart), every modeled
// mutex acquisition (kShardAcquire, and the task lifecycle's
// kStripeAcquire / kCreateAcquire), the start of an optimistic read
// (kSeqReadBegin), abort_task (kTaskOp), and resumption of a blocked op
// (kBlocked). Everything else the engine announces
// (release/retry/wake/epoch/floor) is bookkeeping inside a segment: it
// never yields, so it needs no decision and is not recorded.
//
// A segment may begin while its thread holds a modeled mutex (a creation
// takes its task's stripe under the creation mutex; a reclaim pass takes
// the creation mutex under a shard lock), so a thread whose pending
// acquisition names a held mutex is not a candidate.

/// Modeled mutexes are named by their acquire kind and object, whichever
/// side of the mutex a point announces.
std::pair<SchedKind, std::uint64_t> mutex_key(SchedPoint p) {
  switch (p.kind) {
    case SchedKind::kShardRelease: return {SchedKind::kShardAcquire, p.obj};
    case SchedKind::kStripeRelease: return {SchedKind::kStripeAcquire, p.obj};
    case SchedKind::kCreateRelease: return {SchedKind::kCreateAcquire, p.obj};
    default: return {p.kind, p.obj};
  }
}

bool is_acquire(SchedKind k) {
  return k == SchedKind::kShardAcquire || k == SchedKind::kStripeAcquire ||
         k == SchedKind::kCreateAcquire;
}

class CooperativeScheduler final : public ScheduleHook {
 public:
  struct Candidate {
    int tid;
    SchedPoint label;
  };
  /// Decide which candidate runs next. Candidates are sorted by tid;
  /// `prev` is the previously granted thread (-1 at the first decision).
  /// Return an index, or -1 to abort the run (replay divergence).
  using Chooser =
      std::function<int(std::size_t step, const std::vector<Candidate>& cands,
                        int prev)>;

  CooperativeScheduler(int nthreads, Chooser chooser)
      : n_(nthreads), chooser_(std::move(chooser)), ts_(nthreads) {}

  /// Called by each managed thread before its first op. Blocks until every
  /// thread has attached (so the first decision sees all of them) and this
  /// thread is granted its kThreadStart.
  void thread_begin(int tid) {
    tls_owner() = this;
    tls_tid() = tid;
    std::unique_lock<std::mutex> lk(mu_);
    ThreadState& t = ts_[static_cast<std::size_t>(tid)];
    t.state = State::kReady;
    t.pending = {SchedKind::kThreadStart, static_cast<std::uint64_t>(tid)};
    if (++attached_ == n_) pick_next();
    wait_granted(lk, tid);
  }

  /// Called by each managed thread after its last op.
  void thread_end() {
    const int tid = tls_tid();
    {
      std::unique_lock<std::mutex> lk(mu_);
      ts_[static_cast<std::size_t>(tid)].state = State::kDone;
      ++done_;
      pick_next();
    }
    tls_owner() = nullptr;
    tls_tid() = -1;
  }

  // ---- ScheduleHook ----

  void point(SchedPoint p) override {
    if (!managed()) return;
    switch (p.kind) {
      case SchedKind::kSeqReadBegin:
      case SchedKind::kTaskOp:
        yield(p);
        break;
      default:
        break;  // bookkeeping: the segment continues
    }
  }

  void mutex_acquire(SchedPoint p) override {
    if (!managed()) return;
    yield(p);
    std::unique_lock<std::mutex> lk(mu_);
    owner_[mutex_key(p)] = tls_tid();
  }

  void mutex_release(SchedPoint p) override {
    if (!managed()) return;
    std::unique_lock<std::mutex> lk(mu_);
    auto it = owner_.find(mutex_key(p));
    if (it != owner_.end() && it->second == tls_tid()) owner_.erase(it);
  }

  bool block(SchedPoint p) override {
    if (!managed()) return false;
    const int tid = tls_tid();
    std::unique_lock<std::mutex> lk(mu_);
    if (aborted_) return false;
    ThreadState& t = ts_[static_cast<std::size_t>(tid)];
    t.state = State::kBlocked;
    t.pending = p;  // {kBlocked, shard}: the resume label
    t.victim = false;
    pick_next();
    cv_.wait(lk, [&] {
      return aborted_.load() || (running_ == tid && t.state == State::kRunning);
    });
    if (aborted_) return false;
    if (t.victim) {
      t.victim = false;
      return false;  // deadlock: the caller faults kWouldBlock
    }
    return true;
  }

  void wake(SchedPoint p) override {
    if (!managed()) return;
    std::unique_lock<std::mutex> lk(mu_);
    for (ThreadState& t : ts_) {
      if (t.state == State::kBlocked && t.pending.obj == p.obj) {
        t.state = State::kReady;  // pending keeps the kBlocked resume label
      }
    }
    // The waker keeps running; the woken compete at the next decision.
  }

  // ---- Driver-side (after join) ----

  /// Stop scheduling: every hook becomes pass-through and every block()
  /// returns false, so all threads free-run to completion and join.
  void abort(const std::string& why) {
    std::unique_lock<std::mutex> lk(mu_);
    aborted_ = true;
    if (error_.empty()) error_ = why;
    cv_.notify_all();
  }

  const std::vector<ScheduleStep>& steps() const { return steps_; }
  const std::string& error() const { return error_; }

 private:
  enum class State { kNew, kReady, kRunning, kBlocked, kDone };
  struct ThreadState {
    State state = State::kNew;
    SchedPoint pending{SchedKind::kThreadStart, 0};
    bool victim = false;
  };

  // One thread-local binding per host thread: which scheduler (if any)
  // manages it. Hook calls from unmanaged threads — the driver doing
  // setup/inspection — pass through to the real engine paths.
  static CooperativeScheduler*& tls_owner() {
    static thread_local CooperativeScheduler* owner = nullptr;
    return owner;
  }
  static int& tls_tid() {
    static thread_local int tid = -1;
    return tid;
  }

  bool managed() const { return tls_owner() == this && !aborted_.load(); }

  void yield(SchedPoint p) {
    const int tid = tls_tid();
    std::unique_lock<std::mutex> lk(mu_);
    if (aborted_) return;
    ThreadState& t = ts_[static_cast<std::size_t>(tid)];
    t.state = State::kReady;
    t.pending = p;
    pick_next();
    wait_granted(lk, tid);
  }

  void wait_granted(std::unique_lock<std::mutex>& lk, int tid) {
    cv_.wait(lk, [&] {
      return aborted_.load() ||
             (running_ == tid &&
              ts_[static_cast<std::size_t>(tid)].state == State::kRunning);
    });
  }

  // mu_ held. Chooses and grants the next thread, or declares a deadlock
  // victim (deterministic: the lowest-tid blocked thread; no decision is
  // recorded because there is nothing to choose).
  void pick_next() {
    running_ = -1;
    if (aborted_ || done_ == n_ || attached_ < n_) {
      cv_.notify_all();
      return;
    }
    std::vector<Candidate> cands;
    for (int i = 0; i < n_; ++i) {
      const ThreadState& t = ts_[static_cast<std::size_t>(i)];
      if (t.state != State::kReady) continue;
      if (is_acquire(t.pending.kind) &&
          owner_.count(mutex_key(t.pending)) != 0) {
        continue;  // another thread holds that mutex
      }
      cands.push_back({i, t.pending});
    }
    if (cands.empty()) {
      for (int i = 0; i < n_; ++i) {
        ThreadState& t = ts_[static_cast<std::size_t>(i)];
        if (t.state == State::kBlocked) {
          t.victim = true;
          t.state = State::kRunning;
          running_ = i;
          cv_.notify_all();
          return;
        }
      }
      aborted_ = true;
      if (error_.empty()) error_ = "scheduler: no runnable or blocked thread";
      cv_.notify_all();
      return;
    }
    const int idx = chooser_(steps_.size(), cands, prev_);
    if (idx < 0 || idx >= static_cast<int>(cands.size())) {
      aborted_ = true;  // chooser refused (divergence; reason set by caller)
      cv_.notify_all();
      return;
    }
    const Candidate& c = cands[static_cast<std::size_t>(idx)];
    steps_.push_back({c.tid, c.label.kind, c.label.obj});
    prev_ = c.tid;
    ts_[static_cast<std::size_t>(c.tid)].state = State::kRunning;
    running_ = c.tid;
    cv_.notify_all();
  }

  const int n_;
  Chooser chooser_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<ThreadState> ts_;
  /// Modeled mutex (mutex_key) -> holder.
  std::map<std::pair<SchedKind, std::uint64_t>, int> owner_;
  std::vector<ScheduleStep> steps_;
  int attached_ = 0;
  int done_ = 0;
  int running_ = -1;
  int prev_ = -1;
  std::atomic<bool> aborted_{false};
  std::string error_;
};

// ---------------------------------------------------------------------------
// Checksums and op execution

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void u64(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(x >> (8 * i)));
  }
  void str(const std::string& s) {
    for (char c : s) byte(static_cast<std::uint8_t>(c));
    byte(0);
  }
};

// Checksum over per-op results plus the surviving version set. Engine
// error text is excluded (only the 'e' tag hashes) so a violating seeded
// schedule and its replay agree without pinning message wording, and an
// oracle comparison never depends on engine-internal strings.
std::uint64_t outcome_checksum(
    const std::vector<std::vector<OpResult>>& results,
    const std::vector<std::array<std::uint64_t, 3>>& final_state) {
  Fnv f;
  for (std::size_t t = 0; t < results.size(); ++t) {
    for (std::size_t i = 0; i < results[t].size(); ++i) {
      f.u64(t);
      f.u64(i);
      f.byte(static_cast<std::uint8_t>(results[t][i].tag));
      if (results[t][i].tag == 'v') {
        f.u64(results[t][i].value);
        f.u64(results[t][i].got);
      } else if (results[t][i].tag == 'f') {
        f.str(results[t][i].text);
      }
    }
  }
  for (const auto& e : final_state) {
    f.u64(e[0]);
    f.u64(e[1]);
    f.u64(e[2]);
  }
  return f.h;
}

/// Execute one program op against either engine (both expose the same
/// versioned-ISA member signatures). Throws what the engine throws.
template <typename Store>
OpResult exec_op(Store& s, OAddr base, const McOp& op) {
  OpResult r;
  const OAddr a = base + 8 * op.slot;
  switch (op.op) {
    case OpCode::kLoadVersion:
      r.value = s.load_version(a, op.version);
      r.got = op.version;
      break;
    case OpCode::kLoadLatest: {
      Ver found = 0;
      r.value = s.load_latest(a, op.cap, &found);
      r.got = found;
      break;
    }
    case OpCode::kStoreVersion: {
      const std::uint64_t d =
          op.data != 0 ? op.data : mc_data(op.slot, op.version);
      s.store_version(a, op.version, d);
      r.value = d;
      r.got = op.version;
      break;
    }
    case OpCode::kLockLoadVersion:
      r.value = s.lock_load_version(a, op.version, op.task);
      r.got = op.version;
      break;
    case OpCode::kLockLoadLatest: {
      Ver found = 0;
      r.value = s.lock_load_latest(a, op.cap, op.task, &found);
      r.got = found;
      break;
    }
    case OpCode::kUnlockVersion:
      s.unlock_version(a, op.version, op.task, op.rename_to);
      r.got = op.rename_to.value_or(op.version);
      break;
    case OpCode::kTaskBegin:
      s.task_begin(op.task);  // implicitly creates (both engines)
      break;
    case OpCode::kTaskEnd:
      s.task_end(op.task);
      break;
  }
  return r;
}

/// All versions the program can ever create, per final-state probing.
std::vector<Ver> version_universe(const McProgram& prog) {
  std::set<Ver> vs;
  auto scan = [&](const std::vector<McOp>& ops) {
    for (const McOp& op : ops) {
      if (op.op == OpCode::kStoreVersion) vs.insert(op.version);
      if (op.op == OpCode::kUnlockVersion && op.rename_to) {
        vs.insert(*op.rename_to);
      }
    }
  };
  scan(prog.setup);
  for (const auto& t : prog.threads) scan(t);
  return {vs.begin(), vs.end()};
}

template <typename PeekFn>
std::vector<std::array<std::uint64_t, 3>> probe_final_state(
    const McProgram& prog, PeekFn peek) {
  std::vector<std::array<std::uint64_t, 3>> out;
  const std::vector<Ver> universe = version_universe(prog);
  for (std::uint64_t slot = 0; slot < prog.nslots; ++slot) {
    for (Ver v : universe) {
      if (std::optional<std::uint64_t> d = peek(slot, v)) {
        out.push_back({slot, v, *d});
      }
    }
  }
  return out;
}

/// Position-keyed outcome comparison (schedule order never matters).
/// Engine errors compare by tag alone; messages are engine-internal.
std::string compare_outcomes(const ScheduleOutcome& got,
                             const ScheduleOutcome& want,
                             bool compare_final) {
  std::ostringstream why;
  if (got.results.size() != want.results.size()) {
    return "thread count mismatch";
  }
  for (std::size_t t = 0; t < got.results.size(); ++t) {
    if (got.results[t].size() != want.results[t].size()) {
      why << "thread " << t << " completed " << got.results[t].size()
          << " ops, reference completed " << want.results[t].size();
      return why.str();
    }
    for (std::size_t i = 0; i < got.results[t].size(); ++i) {
      const OpResult& g = got.results[t][i];
      const OpResult& w = want.results[t][i];
      if (g.tag != w.tag || (g.tag == 'v' && (g.value != w.value ||
                                              g.got != w.got)) ||
          (g.tag == 'f' && g.text != w.text)) {
        why << "thread " << t << " op " << i << ": got " << g.tag << "("
            << g.value << ", v" << g.got << ", " << g.text << "), reference "
            << w.tag << "(" << w.value << ", v" << w.got << ", " << w.text
            << ")";
        return why.str();
      }
    }
  }
  if (compare_final && got.final_state != want.final_state) {
    why << "surviving version set differs (" << got.final_state.size()
        << " vs " << want.final_state.size() << " entries)";
    return why.str();
  }
  return {};
}

// ---------------------------------------------------------------------------
// One controlled execution

ScheduleOutcome run_one(const McProgram& prog, const McOptions& opt,
                        CooperativeScheduler::Chooser chooser,
                        std::string* sched_error) {
  const int n = static_cast<int>(prog.threads.size());
  ScheduleOutcome out;
  out.results.assign(static_cast<std::size_t>(n), {});

  ConcurrentVersionStore store(prog.cfg);
  telemetry::Tracer tracer;
  CheckerSink* sink = nullptr;
  if (opt.checked) {
    auto s = std::make_unique<CheckerSink>(prog.cfg.max_threads,
                                           CheckerOptions{});
    sink = s.get();
    tracer.add_sink(std::move(s));
    store.attach_tracer(&tracer);
  }
  const OAddr base = store.alloc(prog.nslots);
  for (const McOp& op : prog.setup) {
    try {
      exec_op(store, base, op);
    } catch (const std::exception& e) {
      out.violation = true;
      out.violation_kind = "setup-error";
      out.violation_detail = e.what();
      return out;
    }
  }

  CooperativeScheduler sched(n, std::move(chooser));
  store.attach_schedule_hook(&sched);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      sched.thread_begin(t);
      for (const McOp& op : prog.threads[static_cast<std::size_t>(t)]) {
        OpResult r;
        bool fatal = false;
        try {
          r = exec_op(store, base, op);
        } catch (const OFault& f) {
          r.tag = 'f';
          r.text = to_string(f.kind());
        } catch (const std::exception& e) {
          r.tag = 'e';
          r.text = e.what();
          fatal = true;  // the engine is in an undefined state: stop here
        }
        out.results[static_cast<std::size_t>(t)].push_back(r);
        if (fatal) break;
      }
      sched.thread_end();
    });
  }
  for (std::thread& th : threads) th.join();
  store.attach_schedule_hook(nullptr);
  out.steps = sched.steps();
  if (!sched.error().empty()) {
    if (sched_error != nullptr) *sched_error = sched.error();
    out.violation = true;
    out.violation_kind = "scheduler";
    out.violation_detail = sched.error();
    return out;
  }

  // Violation checks, cheapest and most fundamental first. The thread
  // bound must precede anything that iterates ctxs_[0..nctx_), and a
  // corrupted chain (integrity) must preclude the final-state walk.
  if (store.registered_threads() > prog.cfg.max_threads) {
    out.violation = true;
    out.violation_kind = "ctx-overshoot";
    out.violation_detail =
        std::to_string(store.registered_threads()) +
        " thread registrations against max_threads = " +
        std::to_string(prog.cfg.max_threads);
  }
  if (!out.violation && !prog.expect_engine_errors) {
    for (std::size_t t = 0; t < out.results.size() && !out.violation; ++t) {
      for (const OpResult& r : out.results[t]) {
        if (r.tag == 'e') {
          out.violation = true;
          out.violation_kind = "engine-error";
          out.violation_detail =
              "thread " + std::to_string(t) + ": " + r.text;
          break;
        }
      }
    }
  }
  if (!out.violation) {
    ConcurrentVersionStore::IntegrityReport rep = store.check_integrity();
    if (!rep.ok) {
      out.violation = true;
      out.violation_kind = "integrity";
      out.violation_detail = rep.detail;
    }
  }
  if (!out.violation && sink != nullptr) {
    Checker& ck = sink->checker();
    ck.finish();
    if (ck.error_count() > 0) {
      out.violation = true;
      out.violation_kind = "checker";
      out.violation_detail = to_string(ck.findings().front());
    }
  }
  if (!out.violation && prog.compare_final_state) {
    out.final_state = probe_final_state(prog, [&](std::uint64_t slot, Ver v) {
      return store.peek_version(base + 8 * slot, v);
    });
  }
  out.checksum = outcome_checksum(out.results, out.final_state);
  return out;
}

// ---------------------------------------------------------------------------
// Independence (sleep-set reduction)
//
// Conservative: declaring two transitions dependent is always sound. A
// granted transition runs a whole segment, so "independent" must cover
// everything the segment can touch. With reclamation inert (gc_active
// false) a segment touches only its own shard (writes/locks under the
// shard mutex, optimistic reads, wakes of that shard's waiters); task ops
// touch only the task set. A stripe segment reads or writes one stripe
// (TASK-BEGIN of a live task, TASK-END, or the insert of a creation that
// already holds the creation mutex), so stripe segments on different
// stripes commute. A creation segment scans every stripe's published
// oldest id, and abort_task (kTaskOp) claims nothing. With reclamation
// active, epochs and the GC floor couple reads, writes and task ops
// across shards — claim nothing.

bool is_task_kind(SchedKind k) {
  return k == SchedKind::kTaskOp || k == SchedKind::kStripeAcquire ||
         k == SchedKind::kCreateAcquire;
}

bool mc_independent(const ScheduleStep& a, const SchedPoint& b,
                    bool gc_active) {
  if (a.kind == SchedKind::kThreadStart || b.kind == SchedKind::kThreadStart) {
    return true;  // segment up to the first announce is thread-local
  }
  if (gc_active) return false;
  const bool a_task = is_task_kind(a.kind);
  const bool b_task = is_task_kind(b.kind);
  if (a_task != b_task) return true;  // task set vs shards
  if (a_task) {
    return a.kind == SchedKind::kStripeAcquire &&
           b.kind == SchedKind::kStripeAcquire && a.obj != b.obj;
  }
  if (a.obj != b.obj) return true;  // different shards commute
  return a.kind == SchedKind::kSeqReadBegin &&
         b.kind == SchedKind::kSeqReadBegin;  // readers commute
}

// ---------------------------------------------------------------------------
// DFS exploration state

struct Level {
  std::vector<CooperativeScheduler::Candidate> cands;
  std::set<int> done;   // explored at this state
  std::set<int> sleep;  // covered elsewhere (sleep set), superset of done
  int chosen = -1;
  int prev = -1;              // thread granted at the previous level
  int preemptions_before = 0; // context switches consumed above this level
};

bool is_preemption(const Level& l) {
  if (l.prev < 0 || l.chosen == l.prev) return false;
  for (const auto& c : l.cands) {
    if (c.tid == l.prev) return true;  // prev was enabled yet descheduled
  }
  return false;
}

const CooperativeScheduler::Candidate* find_cand(
    const std::vector<CooperativeScheduler::Candidate>& cands, int tid) {
  for (const auto& c : cands) {
    if (c.tid == tid) return &c;
  }
  return nullptr;
}

bool same_candidates(const std::vector<CooperativeScheduler::Candidate>& a,
                     const std::vector<CooperativeScheduler::Candidate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].tid != b[i].tid || a[i].label.kind != b[i].label.kind ||
        a[i].label.obj != b[i].label.obj) {
      return false;
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points

std::uint64_t mc_data(std::uint64_t slot, Ver v) {
  std::uint64_t x =
      slot * 0x9E3779B97F4A7C15ull + v * 0xBF58476D1CE4E5B9ull + 0x1234567ull;
  x ^= x >> 31;
  x *= 0xD6E8FEB86659FD93ull;
  x ^= x >> 27;
  return x | 1;  // never 0: 0 means "use the default" in McOp::data
}

ScheduleOutcome run_oracle(const McProgram& prog) {
  const int n = static_cast<int>(prog.threads.size());
  ScheduleOutcome out;
  out.results.assign(static_cast<std::size_t>(n), {});

  telemetry::MetricRegistry reg(n + 1);
  FunctionalTiming timing;
  OStructConfig ocfg;
  ocfg.initial_pool_blocks = std::size_t{1} << 12;  // litmus scale
  ocfg.gc_watermark = 0;                            // never auto-collect
  VersionStore vs(ocfg, n + 1, reg, timing);
  const OAddr base = vs.alloc(prog.nslots);
  timing.set_core(n);  // driver core, mirroring the concurrent setup path
  for (const McOp& op : prog.setup) exec_op(vs, base, op);

  // Round-robin, one op per runnable thread per round; a kWouldBlock op is
  // retried until some other thread unblocks it. A full round without
  // progress means the remaining ops can never be satisfied: fault the
  // lowest-tid blocked op — exactly the scheduler's deadlock-victim rule —
  // and keep going.
  std::vector<std::size_t> pc(static_cast<std::size_t>(n), 0);
  std::vector<bool> dead(static_cast<std::size_t>(n), false);
  auto live = [&](int t) {
    return !dead[static_cast<std::size_t>(t)] &&
           pc[static_cast<std::size_t>(t)] <
               prog.threads[static_cast<std::size_t>(t)].size();
  };
  for (;;) {
    bool any_live = false;
    bool progress = false;
    for (int t = 0; t < n; ++t) {
      if (!live(t)) continue;
      any_live = true;
      const std::size_t ti = static_cast<std::size_t>(t);
      const McOp& op = prog.threads[ti][pc[ti]];
      timing.set_core(t);
      OpResult r;
      try {
        r = exec_op(vs, base, op);
      } catch (const OFault& f) {
        if (f.kind() == FaultKind::kWouldBlock) continue;  // retry later
        r.tag = 'f';
        r.text = to_string(f.kind());
      } catch (const std::exception& e) {
        r.tag = 'e';
        r.text = e.what();
        dead[ti] = true;
      }
      out.results[ti].push_back(r);
      ++pc[ti];
      progress = true;
    }
    if (!any_live) break;
    if (!progress) {
      for (int t = 0; t < n; ++t) {
        if (!live(t)) continue;
        const std::size_t ti = static_cast<std::size_t>(t);
        OpResult r;
        r.tag = 'f';
        r.text = to_string(FaultKind::kWouldBlock);
        out.results[ti].push_back(r);
        ++pc[ti];
        break;
      }
    }
  }
  if (prog.compare_final_state) {
    out.final_state = probe_final_state(prog, [&](std::uint64_t slot, Ver v) {
      return vs.peek_version(base + 8 * slot, v);
    });
  }
  out.checksum = outcome_checksum(out.results, out.final_state);
  return out;
}

ExploreResult explore(const McProgram& prog, const McOptions& opt) {
  if (prog.threads.empty()) {
    throw std::runtime_error("explore: program has no threads");
  }
  ExploreResult res;
  std::optional<ScheduleOutcome> reference;
  if (prog.use_oracle && !prog.expect_engine_errors) {
    reference = run_oracle(prog);
  }

  std::vector<Level> path;
  std::size_t forced = 0;  // levels [0, forced) replay their chosen tid
  bool exhausted = false;
  while (!exhausted && res.schedules < opt.max_schedules) {
    std::string choose_error;
    auto chooser = [&](std::size_t step,
                       const std::vector<CooperativeScheduler::Candidate>&
                           cands,
                       int prev) -> int {
      if (step < forced) {
        Level& l = path[step];
        if (!same_candidates(l.cands, cands)) {
          choose_error = "enabled set diverged while replaying the forced "
                         "prefix at step " +
                         std::to_string(step) +
                         " (nondeterministic engine behaviour)";
          return -1;
        }
        const auto* c = find_cand(cands, l.chosen);
        return static_cast<int>(c - cands.data());
      }
      Level l;
      l.cands = cands;
      l.prev = prev;
      l.preemptions_before =
          step == 0 ? 0
                    : path[step - 1].preemptions_before +
                          (is_preemption(path[step - 1]) ? 1 : 0);
      if (step > 0) {
        // Sleep-set inheritance: a sleeper survives into the child while
        // it is independent of the transition just taken.
        const Level& parent = path[step - 1];
        const auto* chosen_cand = find_cand(parent.cands, parent.chosen);
        const ScheduleStep chosen_step{parent.chosen,
                                       chosen_cand->label.kind,
                                       chosen_cand->label.obj};
        for (int u : parent.sleep) {
          const auto* uc = find_cand(parent.cands, u);
          if (uc != nullptr &&
              mc_independent(chosen_step, uc->label, prog.gc_active)) {
            l.sleep.insert(u);
          }
        }
      }
      const bool budget_hit = opt.preemption_bound >= 0 &&
                              l.preemptions_before >= opt.preemption_bound;
      auto admissible = [&](int tid) {
        if (budget_hit && prev >= 0 && tid != prev &&
            find_cand(cands, prev) != nullptr) {
          return false;  // would preempt with no budget left
        }
        return true;
      };
      int pick = -1;
      for (const auto& c : cands) {  // lowest tid not asleep
        if (!admissible(c.tid)) continue;
        if (opt.por && l.sleep.count(c.tid) != 0) continue;
        pick = c.tid;
        break;
      }
      if (pick < 0) {
        // Every admissible candidate sleeps: this state is fully covered
        // elsewhere, but the run must still terminate — take the lowest
        // admissible thread (a redundant but sound continuation).
        for (const auto& c : cands) {
          if (admissible(c.tid)) {
            pick = c.tid;
            break;
          }
        }
      }
      if (pick < 0) pick = cands[0].tid;  // bound excluded everything
      l.chosen = pick;
      path.push_back(std::move(l));
      return static_cast<int>(find_cand(cands, pick) - cands.data());
    };

    ScheduleOutcome out = run_one(prog, opt, chooser, nullptr);
    ++res.schedules;
    res.steps_total += out.steps.size();
    res.max_depth = std::max<std::uint64_t>(res.max_depth, out.steps.size());
    if (!choose_error.empty()) {
      out.violation = true;
      out.violation_kind = "nondeterministic";
      out.violation_detail = choose_error;
    }
    if (!out.violation && !prog.expect_engine_errors) {
      if (!reference) {
        reference = out;  // self-reference: first schedule is the baseline
      } else {
        const std::string why =
            compare_outcomes(out, *reference, prog.compare_final_state);
        if (!why.empty()) {
          out.violation = true;
          out.violation_kind = "outcome-divergence";
          out.violation_detail = why;
        }
      }
    }
    if (res.schedules == 1) res.first = out;
    if (out.violation && !res.violation_found) {
      res.violation_found = true;
      res.example = out;
      if (opt.stop_on_violation) break;
    }
    if (!res.violation_found) res.example = out;

    // Backtrack: deepest level with an unexplored (awake, admissible)
    // sibling becomes the new forced frontier.
    exhausted = true;
    while (!path.empty()) {
      Level& l = path.back();
      l.done.insert(l.chosen);
      l.sleep.insert(l.chosen);  // explored: sleeps for the siblings
      const bool budget_hit =
          opt.preemption_bound >= 0 &&
          l.preemptions_before >= opt.preemption_bound;
      int next = -1;
      for (const auto& c : l.cands) {
        if (l.done.count(c.tid) != 0) continue;
        if (opt.por && l.sleep.count(c.tid) != 0) continue;
        if (budget_hit && l.prev >= 0 && c.tid != l.prev &&
            find_cand(l.cands, l.prev) != nullptr) {
          continue;
        }
        next = c.tid;
        break;
      }
      if (next >= 0) {
        l.chosen = next;
        forced = path.size();
        exhausted = false;
        break;
      }
      path.pop_back();
    }
  }
  res.complete = exhausted;
  return res;
}

// ---------------------------------------------------------------------------
// Record / replay

namespace {

const char kMagic[] = "osim-mc-schedule v1";

bool parse_kind(const std::string& name, SchedKind* out) {
  static constexpr SchedKind kAll[] = {
      SchedKind::kThreadStart, SchedKind::kShardAcquire,
      SchedKind::kShardRelease, SchedKind::kSeqReadBegin,
      SchedKind::kSeqReadRetry, SchedKind::kBlocked,
      SchedKind::kWake,         SchedKind::kEpochAdvance,
      SchedKind::kGcFloorRaise, SchedKind::kTaskOp,
      SchedKind::kStripeAcquire, SchedKind::kStripeRelease,
      SchedKind::kCreateAcquire, SchedKind::kCreateRelease};
  for (SchedKind k : kAll) {
    if (name == to_string(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

}  // namespace

std::string serialize_schedule(const McProgram& prog, const McOptions& opt,
                               const ScheduleOutcome& out) {
  std::string s(kMagic);
  s += '\n';
  s += "program " + prog.name + "\n";
  s += std::string("checked ") + (opt.checked ? "1" : "0") + "\n";
  s += "seeded " + std::to_string(opt.seeded) + "\n";
  // Optional line: present only for injected runs, so schedules recorded
  // before fault injection existed stay byte-identical.
  if (!prog.cfg.inject_spec.empty()) {
    s += "inject " + prog.cfg.inject_spec + "\n";
  }
  s += "steps " + std::to_string(out.steps.size()) + "\n";
  for (std::size_t i = 0; i < out.steps.size(); ++i) {
    const ScheduleStep& st = out.steps[i];
    s += std::to_string(i) + " " + std::to_string(st.tid) + " " +
         to_string(st.kind) + " " + std::to_string(st.obj) + "\n";
  }
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(out.checksum));
  s += std::string("checksum ") + hex + "\n";
  s += std::string("violation ") +
       (out.violation ? "1 " + out.violation_kind : "0 -") + "\n";
  s += "end\n";
  return s;
}

ReplayFile parse_schedule(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  auto next = [&]() -> std::string& {
    ++lineno;
    if (!std::getline(in, line)) {
      throw std::runtime_error("replay file truncated at line " +
                               std::to_string(lineno));
    }
    return line;
  };
  auto fail = [&](const std::string& why) -> void {
    throw std::runtime_error("replay file line " + std::to_string(lineno) +
                             ": " + why);
  };
  if (next() != kMagic) fail("bad magic (expected \"" + std::string(kMagic) +
                             "\")");
  ReplayFile f;
  {
    std::istringstream ls(next());
    std::string key;
    if (!(ls >> key >> f.program) || key != "program") fail("expected "
                                                            "\"program "
                                                            "<name>\"");
  }
  {
    std::istringstream ls(next());
    std::string key;
    int v = 0;
    if (!(ls >> key >> v) || key != "checked" || (v != 0 && v != 1)) {
      fail("expected \"checked 0|1\"");
    }
    f.checked = v != 0;
  }
  {
    std::istringstream ls(next());
    std::string key;
    if (!(ls >> key >> f.seeded) || key != "seeded" || f.seeded < 0) {
      fail("expected \"seeded <n>\"");
    }
  }
  std::size_t nsteps = 0;
  {
    std::string& l = next();
    if (l.rfind("inject ", 0) == 0) {
      f.inject = l.substr(7);
      if (f.inject.empty()) fail("expected \"inject <spec>\"");
      next();
    }
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key >> nsteps) || key != "steps") fail("expected \"steps "
                                                       "<n>\"");
  }
  f.steps.reserve(nsteps);
  for (std::size_t i = 0; i < nsteps; ++i) {
    std::istringstream ls(next());
    std::size_t idx = 0;
    ScheduleStep st;
    std::string kind;
    if (!(ls >> idx >> st.tid >> kind >> st.obj) || idx != i || st.tid < 0) {
      fail("malformed step (expected \"" + std::to_string(i) +
           " <tid> <kind> <obj>\")");
    }
    if (!parse_kind(kind, &st.kind)) fail("unknown schedule-point kind \"" +
                                          kind + "\"");
    f.steps.push_back(st);
  }
  {
    std::istringstream ls(next());
    std::string key, hex;
    if (!(ls >> key >> hex) || key != "checksum" || hex.size() != 16 ||
        hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
      fail("expected \"checksum <16 hex digits>\"");
    }
    f.checksum = std::stoull(hex, nullptr, 16);
  }
  {
    std::istringstream ls(next());
    std::string key, kind;
    int v = 0;
    if (!(ls >> key >> v >> kind) || key != "violation" ||
        (v != 0 && v != 1) || (v == 0 && kind != "-") ||
        (v == 1 && kind == "-")) {
      fail("expected \"violation 0 -\" or \"violation 1 <kind>\"");
    }
    f.violation = v != 0;
    if (f.violation) f.violation_kind = kind;
  }
  if (next() != "end") fail("expected \"end\"");
  return f;
}

void inject_faults(McProgram& p, const std::string& spec) {
  if (spec.empty()) return;
  p.cfg.inject_spec = spec;
  p.use_oracle = false;
  p.compare_final_state = false;
  p.expect_engine_errors = true;
}

ScheduleOutcome replay_schedule(const McProgram& prog, const McOptions& opt,
                                const ReplayFile& file) {
  if (file.program != prog.name) {
    throw std::runtime_error("replay file records program \"" + file.program +
                             "\", not \"" + prog.name + "\"");
  }
  if (file.seeded != opt.seeded) {
    throw std::runtime_error(
        "replay file was recorded against a build with OSIM_MC_SEEDED_BUG=" +
        std::to_string(file.seeded) + "; this engine is seeded " +
        std::to_string(opt.seeded));
  }
  if (!prog.cfg.inject_spec.empty() && prog.cfg.inject_spec != file.inject) {
    throw std::runtime_error("replay file records inject spec \"" +
                             file.inject + "\", not \"" +
                             prog.cfg.inject_spec + "\"");
  }
  McOptions ropt = opt;
  ropt.checked = file.checked;  // the mode shapes the schedule space
  // An injected schedule replays under the recorded plan.
  McProgram rprog = prog;
  inject_faults(rprog, file.inject);
  std::string diverged;
  auto chooser =
      [&](std::size_t step,
          const std::vector<CooperativeScheduler::Candidate>& cands,
          int /*prev*/) -> int {
    if (step >= file.steps.size()) {
      diverged = "execution needs a decision at step " + std::to_string(step) +
                 " but the file records only " +
                 std::to_string(file.steps.size());
      return -1;
    }
    const ScheduleStep& want = file.steps[step];
    const auto* c = find_cand(cands, want.tid);
    if (c == nullptr) {
      diverged = "step " + std::to_string(step) + ": thread " +
                 std::to_string(want.tid) + " is not schedulable here";
      return -1;
    }
    if (c->label.kind != want.kind || c->label.obj != want.obj) {
      diverged = "step " + std::to_string(step) + ": thread " +
                 std::to_string(want.tid) + " is at " +
                 to_string(c->label.kind) + "/" +
                 std::to_string(c->label.obj) + " but the file records " +
                 to_string(want.kind) + "/" + std::to_string(want.obj);
      return -1;
    }
    return static_cast<int>(c - cands.data());
  };
  std::string sched_error;
  ScheduleOutcome out = run_one(rprog, ropt, chooser, &sched_error);
  if (!diverged.empty()) {
    throw std::runtime_error("replay diverged: " + diverged);
  }
  if (!sched_error.empty()) {
    throw std::runtime_error("replay failed: " + sched_error);
  }
  if (out.steps.size() != file.steps.size()) {
    throw std::runtime_error(
        "replay diverged: execution took " + std::to_string(out.steps.size()) +
        " decisions, the file records " + std::to_string(file.steps.size()));
  }
  // Re-validate the outcome against the reference the way explore() did,
  // so an "outcome-divergence" verdict reproduces too.
  if (!out.violation && rprog.use_oracle && !rprog.expect_engine_errors) {
    const ScheduleOutcome oracle = run_oracle(rprog);
    const std::string why =
        compare_outcomes(out, oracle, rprog.compare_final_state);
    if (!why.empty()) {
      out.violation = true;
      out.violation_kind = "outcome-divergence";
      out.violation_detail = why;
    }
  }
  return out;
}

std::string summarize_outcome(const ScheduleOutcome& out) {
  std::size_t ops = 0, faults = 0, errors = 0;
  for (const auto& tr : out.results) {
    for (const OpResult& r : tr) {
      ++ops;
      if (r.tag == 'f') ++faults;
      if (r.tag == 'e') ++errors;
    }
  }
  std::ostringstream s;
  s << out.steps.size() << " decisions, " << ops << " ops (" << faults
    << " faults, " << errors << " errors), checksum " << std::hex
    << out.checksum;
  if (out.violation) {
    s << " — VIOLATION [" << out.violation_kind << "] "
      << out.violation_detail;
  }
  return s.str();
}

}  // namespace osim::analysis
