// sim_paper: the paper's data-structure workloads on the timed backend.
//
// Each pass runs every cell once, one cell at a time on this host thread:
// a fresh Env on the timed backend (fiber machine + cache models over the
// serial VersionStore), the workload's public entry point (its unmeasured
// setup phase warms the caches before the measured operations), a metrics
// snapshot, then the same cell on the functional backend, whose checksum
// the timed one must equal. Simulated cycles, checksums and the metric
// dump must repeat exactly from pass to pass.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "runtime/env.hpp"
#include "spans.hpp"
#include "workloads/binary_tree.hpp"
#include "workloads/hash_table.hpp"
#include "workloads/levenshtein.hpp"
#include "workloads/linked_list.hpp"
#include "workloads/matmul.hpp"
#include "workloads/rb_tree.hpp"

namespace perfbench {

namespace {

using osim::Env;
using osim::RunResult;
using telemetry_c = osim::telemetry::Component;

struct Cell {
  std::string name;
  int cores;
  std::function<RunResult(Env&)> run;
  osim::OStructConfig ostruct{};  ///< the version-block pool and its GC
};

using DsFn = RunResult (*)(Env&, const osim::DsSpec&, int);

/// The cell set. Sizes keep one pass near a second on a current x86 core;
/// inputs (keys, operation mixes, strings, matrices) come from the seed.
/// The default version-block pool is large enough that no other cell
/// collects, so one more cell runs the paper's GC experiment (Sec. IV-F):
/// a write-heavy 10-element list over a free list small enough to trigger
/// GC phases.
std::vector<Cell> make_cells(std::uint64_t seed) {
  struct Ds {
    const char* name;
    DsFn fn;
    std::size_t initial;
    int ops_c1, ops_c32;
  };
  const Ds ds[] = {
      {"linked_list", osim::linked_list_versioned, 256, 2048, 512},
      {"hash_table", osim::hash_table_versioned, 1000, 16000, 4000},
      {"binary_tree", osim::binary_tree_versioned, 1000, 12000, 3000},
      {"rb_tree", osim::rb_tree_versioned, 1000, 8000, 2000},
  };
  std::vector<Cell> cells;
  std::uint64_t s = seed ^ 0x5157A9E5ull;
  for (int cores : {1, 32}) {
    const std::string at = "@" + std::to_string(cores);
    for (const Ds& d : ds) {
      osim::DsSpec spec;
      spec.initial_size = d.initial;
      spec.ops = cores == 1 ? d.ops_c1 : d.ops_c32;
      spec.reads_per_write = 4;
      spec.seed = splitmix64(s);
      const DsFn fn = d.fn;
      cells.push_back({d.name + at, cores, [fn, spec, cores](Env& e) {
                         return fn(e, spec, cores);
                       }});
    }
    osim::LevSpec lev;
    lev.n = cores == 1 ? 400 : 200;
    lev.seed = splitmix64(s);
    cells.push_back({"levenshtein" + at, cores, [lev, cores](Env& e) {
                       return osim::levenshtein_versioned(e, lev, cores);
                     }});
    osim::MatmulSpec mm;
    mm.n = cores == 1 ? 64 : 40;
    mm.seed = splitmix64(s);
    cells.push_back({"matmul" + at, cores, [mm, cores](Env& e) {
                       return osim::matmul_versioned(e, mm, cores);
                     }});
  }
  osim::DsSpec gc;
  gc.initial_size = 10;
  gc.ops = 2000;
  gc.reads_per_write = 1;
  gc.seed = splitmix64(s);
  Cell tight{"linked_list_gc@1", 1,
             [gc](Env& e) { return osim::linked_list_versioned(e, gc, 1); }};
  tight.ostruct.initial_pool_blocks = 80;
  tight.ostruct.trap_grow_blocks = 32;
  tight.ostruct.gc_watermark = 64;
  cells.push_back(std::move(tight));
  return cells;
}

/// Exact counts from one timed cell's MetricRegistry.
struct Counts {
  std::uint64_t instructions = 0, stall_cycles = 0;
  std::uint64_t l1_hits = 0, l1_misses = 0, l2_hits = 0, l2_misses = 0;
  std::uint64_t remote_l1_fills = 0;
  std::uint64_t versioned_ops = 0, direct_hits = 0, full_lookups = 0;
  std::uint64_t walk_blocks = 0, stalls = 0, blocks_freed = 0;

  void add(const osim::telemetry::MetricRegistry& m) {
    instructions += m.total(telemetry_c::kCore, "instructions");
    stall_cycles += m.total(telemetry_c::kCore, "stall_cycles");
    l1_hits += m.total(telemetry_c::kCache, "l1_hits");
    l1_misses += m.total(telemetry_c::kCache, "l1_misses");
    l2_hits += m.total(telemetry_c::kCache, "l2_hits");
    l2_misses += m.total(telemetry_c::kCache, "l2_misses");
    remote_l1_fills += m.total(telemetry_c::kCache, "remote_l1_fills");
    versioned_ops += m.total(telemetry_c::kOsm, "versioned_ops");
    direct_hits += m.total(telemetry_c::kOsm, "direct_hits");
    full_lookups += m.total(telemetry_c::kOsm, "full_lookups");
    walk_blocks += m.total(telemetry_c::kOsm, "walk_blocks");
    stalls += m.total(telemetry_c::kOsm, "stalls");
    blocks_freed += m.total(telemetry_c::kOsm, "blocks_freed");
  }
};

/// What one cell produced in one pass.
struct CellRun {
  osim::Cycles cycles = 0;
  std::uint64_t checksum = 0;
  std::size_t dump_hash = 0;
  double timed_s = 0, functional_s = 0, ctor_s = 0;
  std::uint64_t instructions = 0;
};

/// Span names of the traced pass.
struct Names {
  std::uint16_t pass, ctor, timed, snapshot, functional;
  explicit Names(SpanRecorder& r)
      : pass(r.name("sim_paper.pass")),
        ctor(r.name("runtime.env_ctor")),
        timed(r.name("sim.timed_cell")),
        snapshot(r.name("telemetry.metrics_snapshot")),
        functional(r.name("core.serial.functional_cell")) {}
};

CellRun run_cell(const Cell& c, std::uint32_t idx, SpanRecorder* rec,
                 const Names* nm, Counts* counts) {
  CellRun out;
  osim::MachineConfig cfg;
  cfg.num_cores = c.cores;
  cfg.ostruct = c.ostruct;
  std::int64_t t0 = now_ns();
  std::unique_ptr<Env> env;
  {
    SpanRecorder::Scope sp(rec, nm != nullptr ? nm->ctor : 0, idx);
    env = std::make_unique<Env>(cfg);
  }
  out.ctor_s += seconds_since(t0);
  t0 = now_ns();
  RunResult timed;
  {
    SpanRecorder::Scope sp(rec, nm != nullptr ? nm->timed : 0, idx);
    timed = c.run(*env);
  }
  out.timed_s = seconds_since(t0);
  out.cycles = timed.cycles;
  out.checksum = timed.checksum;
  {
    SpanRecorder::Scope sp(rec, nm != nullptr ? nm->snapshot : 0, idx);
    out.dump_hash = std::hash<std::string>{}(env->metrics().dump_str());
  }
  out.instructions =
      env->metrics().total(telemetry_c::kCore, "instructions");
  if (counts != nullptr) counts->add(env->metrics());
  env.reset();

  cfg.backend = osim::BackendKind::kFunctional;
  t0 = now_ns();
  {
    SpanRecorder::Scope sp(rec, nm != nullptr ? nm->ctor : 0, idx);
    env = std::make_unique<Env>(cfg);
  }
  out.ctor_s += seconds_since(t0);
  t0 = now_ns();
  RunResult functional;
  {
    SpanRecorder::Scope sp(rec, nm != nullptr ? nm->functional : 0, idx);
    functional = c.run(*env);
  }
  out.functional_s = seconds_since(t0);
  if (functional.checksum != timed.checksum) {
    throw osim::SimError(c.name + ": timed checksum " +
                         std::to_string(timed.checksum) +
                         " != functional checksum " +
                         std::to_string(functional.checksum));
  }
  return out;
}

/// Summary of one measured phase (a sequence of whole passes).
struct Phase {
  std::vector<double> setup_s, throughput;
  std::vector<double> pass_us;  ///< timed wall time of each whole pass
  std::vector<double> ns_per_instr_c1, ns_per_instr_c32;
  int passes = 0;
};

/// One pass over every cell, appended to `ph` unless a cell failed (the
/// failure is already counted in `r`); spans when `rec` is set.
void run_pass(const std::vector<Cell>& cells, SpanRecorder* rec,
              const Names* nm, Result& r,
              std::vector<std::optional<CellRun>>& ref, Counts* counts,
              Phase& ph, std::uint32_t pass) {
  SpanRecorder::Scope pass_span(rec, nm != nullptr ? nm->pass : 0, pass);
  double setup = 0, timed = 0, instr = 0;
  double t_c[2] = {0, 0}, i_c[2] = {0, 0};
  bool ok = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    r.attempted += 2;  // the timed and the functional run
    CellRun cr;
    try {
      cr = run_cell(c, static_cast<std::uint32_t>(i), rec, nm,
                    ref[i] ? nullptr : counts);
    } catch (const std::exception& e) {
      r.fail(e.what());
      ok = false;
      continue;
    }
    if (!ref[i]) {
      ref[i] = cr;
      std::printf("cell %-16s cycles %llu checksum %016llx  (timed %.1f ms,"
                  " functional %.1f ms, env %.1f ms)\n",
                  c.name.c_str(), static_cast<unsigned long long>(cr.cycles),
                  static_cast<unsigned long long>(cr.checksum),
                  cr.timed_s * 1e3, cr.functional_s * 1e3, cr.ctor_s * 1e3);
    } else if (ref[i]->cycles != cr.cycles ||
               ref[i]->checksum != cr.checksum ||
               ref[i]->dump_hash != cr.dump_hash) {
      r.fail(c.name + ": cycles/checksum/metrics differ between passes");
    }
    setup += cr.ctor_s;
    timed += cr.timed_s;
    instr += static_cast<double>(cr.instructions);
    const int k = c.cores == 1 ? 0 : 1;
    t_c[k] += cr.timed_s;
    i_c[k] += static_cast<double>(cr.instructions);
  }
  if (!ok) return;
  ph.setup_s.push_back(setup);
  ph.throughput.push_back(instr / timed);
  ph.pass_us.push_back(timed * 1e6);
  ph.ns_per_instr_c1.push_back(t_c[0] * 1e9 / i_c[0]);
  ph.ns_per_instr_c32.push_back(t_c[1] * 1e9 / i_c[1]);
  ++ph.passes;
}

void set_end_to_end(const Phase& ph, Result& r) {
  // One sweep of the timed cells is the unit a user waits for, and its
  // host time is far steadier than any single cell's.
  std::vector<double> lat = ph.pass_us;
  r.set("setup_s", median(ph.setup_s), "s");
  r.set("throughput_per_s", median(ph.throughput), "1/s");
  r.set("lat_p50_us", quantile(lat, 0.5), "us");
  r.set("lat_p99_us", quantile(lat, 0.99), "us");
  r.set("peak_rss_mib", peak_rss_mib(), "MiB");
}

}  // namespace

void run_sim_paper(const Options& opt, Result& r) {
  const std::vector<Cell> cells = make_cells(opt.seed);
  // The first successful run of each cell: every later pass must repeat it.
  std::vector<std::optional<CellRun>> ref(cells.size());
  Counts counts;
  if (!opt.trace) {
    Phase ph;
    const std::int64_t start = now_ns();
    for (std::uint32_t pass = 0;
         pass < 2 || seconds_since(start) < opt.seconds; ++pass) {
      run_pass(cells, nullptr, nullptr, r, ref, &counts, ph, pass);
    }
    set_end_to_end(ph, r);
    std::printf("sim_paper: %d passes x %zu cells, sim_minstr_per_s %.3f "
                "(per pass:",
                ph.passes, cells.size(), r.metrics["throughput_per_s"].value / 1e6);
    for (double t : ph.throughput) std::printf(" %.3f", t / 1e6);
    std::printf(")\n");
    return;
  }
  // Traced run: untraced and traced passes alternate, so a drift in host
  // speed does not read as tracing overhead.
  SpanRecorder rec(std::size_t{1} << 20);
  const Names nm(rec);
  Phase base, tr;
  const std::int64_t start = now_ns();
  for (std::uint32_t pass = 0;
       pass < 2 || seconds_since(start) < opt.seconds; ++pass) {
    run_pass(cells, nullptr, nullptr, r, ref, &counts, base, pass);
    run_pass(cells, &rec, &nm, r, ref, nullptr, tr, pass);
  }
  Result untraced, traced;
  set_end_to_end(base, untraced);
  set_end_to_end(tr, traced);

  const double passes = std::max(1, tr.passes);
  const SpanStats timed = rec.stats("sim.timed_cell");
  const SpanStats func = rec.stats("core.serial.functional_cell");
  r.set("sim.timing_s", (timed.total_s - func.total_s) / passes, "s");
  r.set("core.serial.functional_s", func.total_s / passes, "s");
  r.set("runtime.env_ctor_s", rec.stats("runtime.env_ctor").total_s / passes,
        "s");
  r.set("telemetry.metrics_snapshot_s",
        rec.stats("telemetry.metrics_snapshot").total_s / passes, "s");
  r.set("sim.ns_per_instr.c1", median(tr.ns_per_instr_c1), "ns");
  r.set("sim.ns_per_instr.c32", median(tr.ns_per_instr_c32), "ns");

  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  r.set("sim.instructions", static_cast<double>(counts.instructions), "count");
  r.set("sim.stall_cycles", static_cast<double>(counts.stall_cycles), "count");
  r.set("sim.l1_miss_rate",
        ratio(counts.l1_misses, counts.l1_hits + counts.l1_misses), "ratio");
  r.set("sim.l2_miss_rate",
        ratio(counts.l2_misses, counts.l2_hits + counts.l2_misses), "ratio");
  r.set("sim.remote_l1_fills", static_cast<double>(counts.remote_l1_fills),
        "count");
  r.set("core.serial.versioned_ops", static_cast<double>(counts.versioned_ops),
        "count");
  r.set("core.serial.direct_hit_rate",
        ratio(counts.direct_hits, counts.direct_hits + counts.full_lookups),
        "ratio");
  r.set("core.serial.walk_blocks_per_lookup",
        ratio(counts.walk_blocks, counts.full_lookups), "blocks");
  r.set("core.serial.stalls", static_cast<double>(counts.stalls), "count");
  r.set("core.serial.blocks_freed", static_cast<double>(counts.blocks_freed),
        "count");
  set_trace_overhead(untraced, traced, rec.bytes(), r);
  finish_trace(rec, opt, r);
}

}  // namespace perfbench
