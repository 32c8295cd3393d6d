// Shared pieces of the benchmark driver: options, the result record every
// workload fills, clocks, percentiles and the seeded generators.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string span_path;  ///< where the traced run writes its spans
};

/// One named metric with its unit, printed in the result line.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload run reports. `attempted`/`failed` count checked
/// operations: a fault, a timeout or an output mismatch is a failure.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  ///< first few failure descriptions

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& what) {
    ++failed;
    if (notes.size() < 8) notes.push_back(what);
  }
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Quantile q in [0,1] of `v` (nearest rank; reorders `v`). 0 when empty.
template <typename T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

/// Host threads the machine offers (at least 1).
int host_threads();

inline std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

class SpanRecorder;

/// Tracing overhead of each end-to-end metric: the traced passes relative
/// to the untraced ones ((traced - untraced) / untraced). Both kinds of
/// pass run in one process, so peak RSS cannot be split between them; its
/// overhead is the memory the span buffers held at their peak, in MiB.
void set_trace_overhead(const Result& untraced, const Result& traced,
                        std::size_t span_bytes, Result& r);

/// Write the recorded spans to opt.span_path (when given) and report how
/// many were kept.
void finish_trace(const SpanRecorder& rec, const Options& opt, Result& r);

// The workloads. Each fills `r` and returns normally; an exception
// escaping one is reported by main as a failed run.
void run_sim_paper(const Options& opt, Result& r);
void run_engine_disjoint(const Options& opt, Result& r);

}  // namespace perfbench
