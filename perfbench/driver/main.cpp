// osim-perfbench: the repository benchmark driver.
//
//   osim-perfbench --workload sim_paper|engine_disjoint
//                  --seed N --seconds S --trace 0|1 [--span-out PATH]
//
// Runs one workload for about S seconds of measurement, checks its
// outputs, prints human-readable lines and, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 the per-layer set, taken
// from traced passes that alternate with untraced ones (the pair gives the
// tracing overhead). Metrics of layers a workload does not enter read 0.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "common.hpp"
#include "spans.hpp"

namespace perfbench {

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int host_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

namespace {

const char* const kEndToEnd[] = {"setup_s", "peak_rss_mib", "throughput_per_s",
                                 "lat_p50_us", "lat_p99_us"};

/// Every per-layer metric with its unit. A traced run prints all of them;
/// those of layers its workload does not enter read 0.
std::vector<std::pair<std::string, std::string>> per_layer_catalog() {
  std::vector<std::pair<std::string, std::string>> c = {
      {"sim.timing_s", "s"},
      {"sim.ns_per_instr.c1", "ns"},
      {"sim.ns_per_instr.c32", "ns"},
      {"sim.instructions", "count"},
      {"sim.stall_cycles", "count"},
      {"sim.l1_miss_rate", "ratio"},
      {"sim.l2_miss_rate", "ratio"},
      {"sim.remote_l1_fills", "count"},
      {"core.serial.functional_s", "s"},
      {"core.serial.versioned_ops", "count"},
      {"core.serial.direct_hit_rate", "ratio"},
      {"core.serial.walk_blocks_per_lookup", "blocks"},
      {"core.serial.stalls", "count"},
      {"core.serial.blocks_freed", "count"},
      {"runtime.env_ctor_s", "s"},
      {"telemetry.metrics_snapshot_s", "s"},
      {"runtime.pool_create_s", "s"},
      {"runtime.pool_run_s", "s"},
      {"runtime.pool_dispatch_s", "s"},
      {"core.concurrent.seq_retries_per_kload", "count"},
      {"core.concurrent.spin_waits", "count"},
      {"core.concurrent.parks", "count"},
      {"core.concurrent.blocks_allocated", "count"},
      {"core.concurrent.blocks_reclaimed_ratio", "ratio"},
      {"core.concurrent.ops_per_s_1t", "1/s"},
      {"core.concurrent.scaling", "ratio"},
      {"analysis.checked_ops_per_s", "1/s"},
      {"analysis.findings", "count"},
      {"trace_overhead.peak_rss_mib", "MiB"},
  };
  for (const char* op : {"task_created", "task_begin", "task_end",
                         "load_latest", "store_version", "lock_load",
                         "unlock"}) {
    for (const char* p : {".p50", ".p99"}) {
      c.emplace_back(std::string("core.concurrent.") + op + "_ns" + p, "ns");
    }
  }
  for (const char* m : kEndToEnd) {
    if (std::string(m) != "peak_rss_mib") {
      c.emplace_back(std::string("trace_overhead.") + m, "ratio");
    }
  }
  return c;
}

/// Make `r` hold exactly the metrics of the run's mode: fill the per-layer
/// metrics a workload did not reach with 0, and refuse a name or unit the
/// catalog does not know.
bool complete_metrics(const Options& opt, Result& r) {
  std::map<std::string, std::string> want;
  if (opt.trace) {
    for (const auto& [name, unit] : per_layer_catalog()) want[name] = unit;
  } else {
    for (const char* name : kEndToEnd) want[name] = "";
  }
  for (const auto& [name, m] : r.metrics) {
    const auto it = want.find(name);
    if (it == want.end() || (!it->second.empty() && it->second != m.unit)) {
      std::fprintf(stderr, "osim-perfbench: unexpected metric %s [%s]\n",
                   name.c_str(), m.unit.c_str());
      return false;
    }
  }
  for (const auto& [name, unit] : want) {
    if (r.metrics.count(name) != 0) continue;
    if (!opt.trace) {
      std::fprintf(stderr, "osim-perfbench: %s did not measure %s\n",
                   opt.workload.c_str(), name.c_str());
      return false;
    }
    r.set(name, 0, unit.c_str());
  }
  return true;
}

}  // namespace

void set_trace_overhead(const Result& untraced, const Result& traced,
                        std::size_t span_bytes, Result& r) {
  for (const char* name : kEndToEnd) {
    if (std::string(name) == "peak_rss_mib") continue;
    const double u = untraced.metrics.at(name).value;
    const double t = traced.metrics.at(name).value;
    r.set(std::string("trace_overhead.") + name, u == 0 ? 0 : (t - u) / u,
          "ratio");
  }
  r.set("trace_overhead.peak_rss_mib",
        static_cast<double>(span_bytes) / (1024.0 * 1024.0), "MiB");
}

void finish_trace(const SpanRecorder& rec, const Options& opt, Result& r) {
  std::printf("spans: %llu recorded, %llu dropped\n",
              static_cast<unsigned long long>(rec.recorded()),
              static_cast<unsigned long long>(rec.dropped()));
  if (rec.dropped() != 0) r.fail("span buffer overflowed");
  if (!opt.span_path.empty() && !rec.write(opt.span_path)) {
    r.fail("cannot write spans to " + opt.span_path);
  }
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "osim-perfbench: %s\n"
               "usage: osim-perfbench --workload sim_paper|engine_disjoint "
               "--seed N --seconds S --trace 0|1 [--span-out PATH]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("bad --seed");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0) || o.seconds > 120) {
        usage("bad --seconds");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--span-out") {
      o.span_path = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

void print_result(const Result& r, bool ok) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              ok ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  Result r;
  try {
    if (opt.workload == "sim_paper") {
      run_sim_paper(opt, r);
    } else if (opt.workload == "engine_disjoint") {
      run_engine_disjoint(opt, r);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "osim-perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const auto& [name, m] : r.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "osim-perfbench: metric %s is not finite\n",
                   name.c_str());
      return 1;
    }
  }
  if (!complete_metrics(opt, r)) return 1;
  for (const std::string& n : r.notes) {
    std::printf("FAILED CHECK: %s\n", n.c_str());
  }
  std::printf("error_rate %.6g (%llu failed / %llu attempted)\n",
              r.attempted == 0 ? 0.0
                               : static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  print_result(r, r.failed == 0 && r.attempted > 0);
  return 0;
}
