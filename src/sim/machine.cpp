#include "sim/machine.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace osim {

namespace {

thread_local Machine* g_machine = nullptr;

/// Internal unwind token used to cancel fibers after a fault or deadlock.
struct CancelUnwind {};

}  // namespace

Machine::Machine(const MachineConfig& cfg)
    : cfg_(cfg),
      registry_(cfg.num_cores),
      instructions_(registry_.counter_vec(telemetry::Component::kCore,
                                          "instructions")),
      stall_cycles_(registry_.counter_vec(telemetry::Component::kCore,
                                          "stall_cycles")),
      memsys_(cfg, registry_) {
  cores_.resize(static_cast<std::size_t>(cfg.num_cores));
}

Machine::~Machine() {
  // If run() threw, parked fibers were already drained by cancel_all().
  for ([[maybe_unused]] auto& c : cores_) {
    assert(!c.fiber || !c.fiber->started() || c.fiber->finished());
  }
}

Machine& Machine::current() {
  assert(g_machine != nullptr && "no machine is running on this thread");
  return *g_machine;
}

void Machine::spawn(CoreId core, std::function<void()> body) {
  auto& ctx = cores_.at(static_cast<std::size_t>(core));
  // A core may be given a new program once its previous one finished (e.g.
  // a verification pass after the measured run); its clock carries on.
  if (ctx.fiber && !ctx.fiber->finished()) {
    throw SimError("core already has a program");
  }
  ctx.fiber.reset();
  ctx.state = CoreState::kRunnable;
  ctx.fiber = std::make_unique<Fiber>(
      [this, body = std::move(body)] {
        try {
          body();
        } catch (const CancelUnwind&) {
          // Machine-initiated teardown; nothing to record.
        } catch (const std::exception& e) {
          if (!faulted_) {
            faulted_ = true;
            fault_ = e.what();
          }
        }
      },
      cfg_.fiber_stack_bytes);
  push_ready(core);
}

bool Machine::runs_after(CoreId a, CoreId b) const {
  const Cycles ca = cores_[static_cast<std::size_t>(a)].clock;
  const Cycles cb = cores_[static_cast<std::size_t>(b)].clock;
  return ca > cb || (ca == cb && a > b);
}

void Machine::push_ready(CoreId core) {
  ready_.push_back(core);
  std::push_heap(ready_.begin(), ready_.end(),
                 [this](CoreId a, CoreId b) { return runs_after(a, b); });
}

CoreId Machine::pop_ready() {
  std::pop_heap(ready_.begin(), ready_.end(),
                [this](CoreId a, CoreId b) { return runs_after(a, b); });
  const CoreId core = ready_.back();
  ready_.pop_back();
  return core;
}

bool Machine::i_am_earliest() const {
  return ready_.empty() || runs_after(ready_.front(), running_);
}

void Machine::yield_current() {
  auto& ctx = cores_[static_cast<std::size_t>(running_)];
  ctx.fiber->yield();
  if (cancelling_) throw CancelUnwind{};
}

void Machine::sync_to_global_order() {
  assert(running_ >= 0);
  while (!i_am_earliest()) yield_current();
}

Cycles Machine::now() const {
  assert(running_ >= 0);
  return cores_[static_cast<std::size_t>(running_)].clock;
}

void Machine::advance(Cycles c) {
  assert(running_ >= 0);
  cores_[static_cast<std::size_t>(running_)].clock += c;
}

void Machine::exec(std::uint64_t n) {
  assert(running_ >= 0);
  instructions_.inc(running_, n);
  const auto width = static_cast<std::uint64_t>(cfg_.issue_width);
  advance((n + width - 1) / width);
}

void Machine::mem_access(Addr addr, AccessType type, AccessOptions opts) {
  sync_to_global_order();
  advance(memsys_.access(running_, addr, type, opts));
}

void Machine::block_on(WaitList& wl) {
  assert(running_ >= 0);
  auto& ctx = cores_[static_cast<std::size_t>(running_)];
  ctx.state = CoreState::kBlocked;
  ctx.block_start = ctx.clock;
  wl.waiters_.push_back(running_);
  yield_current();
}

void Machine::wake_all(WaitList& wl, Cycles wake_latency) {
  assert(running_ >= 0);
  const Cycles arrival = now() + wake_latency;
  for (CoreId w : wl.waiters_) {
    auto& ctx = cores_[static_cast<std::size_t>(w)];
    assert(ctx.state == CoreState::kBlocked);
    ctx.clock = std::max(ctx.clock, arrival);
    stall_cycles_.inc(w, ctx.clock - ctx.block_start);
    ctx.state = CoreState::kRunnable;
    push_ready(w);
  }
  wl.waiters_.clear();
}

void Machine::fault(const std::string& what) { throw SimError(what); }

void Machine::cancel_all() {
  cancelling_ = true;
  for (auto& c : cores_) {
    if (!c.fiber) continue;
    if (!c.fiber->started()) {
      c.fiber.reset();  // never ran: the core can take a new program
      c.state = CoreState::kDone;
      continue;
    }
    while (!c.fiber->finished()) {
      running_ = static_cast<CoreId>(&c - cores_.data());
      c.fiber->resume();
    }
    c.state = CoreState::kDone;
    running_ = -1;
  }
  ready_.clear();
  cancelling_ = false;
}

void Machine::run() {
  if (g_machine != nullptr) throw SimError("nested Machine::run");
  g_machine = this;
  struct Reset {
    ~Reset() { g_machine = nullptr; }
  } reset;

  while (!ready_.empty()) {
    const CoreId c = pop_ready();
    auto& ctx = cores_[static_cast<std::size_t>(c)];
    running_ = c;
    ctx.fiber->resume();
    running_ = -1;
    if (ctx.fiber->finished()) {
      ctx.state = CoreState::kDone;
      elapsed_ = std::max(elapsed_, ctx.clock);
    } else if (ctx.state == CoreState::kRunnable) {
      push_ready(c);
    }
    if (faulted_) {
      cancel_all();
      faulted_ = false;
      throw SimError(std::exchange(fault_, {}));
    }
  }
  const auto blocked =
      std::count_if(cores_.begin(), cores_.end(), [](const CoreCtx& c) {
        return c.state == CoreState::kBlocked;
      });
  if (blocked == 0) return;  // all programs done
  cancel_all();
  throw SimError("deadlock: " + std::to_string(blocked) +
                 " core(s) blocked with no possible wakeup");
}

}  // namespace osim
