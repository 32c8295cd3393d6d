// Metrics registry: the one place every simulator component reports
// counters, gauges, and histograms through.
//
// Design (ISSUE 2): components register named metrics once, at construction
// time, and get back *handles* — raw pointers into registry-owned slot
// arrays. The hot path is a single `(*slot)++` (counters) or an indexed
// increment (per-core counter vectors); no string lookups, no hashing, no
// virtual calls ever happen after registration. Registration order is
// deterministic (components are constructed in a fixed order per machine),
// so dump() output is bit-identical across runs and host-thread counts —
// the property test_host_pool.cpp asserts.
//
// Slot storage is allocated per metric (one unique_ptr<uint64_t[]> each), so
// handles stay valid no matter how many metrics are registered afterwards.
#pragma once

#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace osim::telemetry {

/// The simulator components that own metrics. Used as a namespace prefix in
/// dumps ("osm/full_lookups") and for grouped queries. kRuntime holds the
/// retrying task runtimes' degradation counters.
enum class Component : std::uint8_t { kCore, kCache, kOsm, kGc, kRuntime };

inline const char* to_string(Component c) {
  switch (c) {
    case Component::kCore:
      return "core";
    case Component::kCache:
      return "cache";
    case Component::kOsm:
      return "osm";
    case Component::kGc:
      return "gc";
    case Component::kRuntime:
      return "runtime";
  }
  assert(!"unknown Component");
  return "?";
}

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Handle to a machine-wide counter. Trivially copyable; valid for the
/// lifetime of the registry that issued it.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t by = 1) { *slot_ += by; }
  /// Counters are monotone except for explicit rollback paths (e.g. a
  /// duplicate-version store returns its freshly-counted block).
  void dec(std::uint64_t by = 1) { *slot_ -= by; }
  std::uint64_t value() const { return *slot_; }

 private:
  friend class MetricRegistry;
  explicit Counter(std::uint64_t* slot) : slot_(slot) {}
  std::uint64_t* slot_ = nullptr;
};

/// Handle to a per-core counter vector (one slot per core).
class CounterVec {
 public:
  CounterVec() = default;
  void inc(CoreId core, std::uint64_t by = 1) {
    base_[static_cast<std::size_t>(core)] += by;
  }
  std::uint64_t value(CoreId core) const {
    return base_[static_cast<std::size_t>(core)];
  }

 private:
  friend class MetricRegistry;
  explicit CounterVec(std::uint64_t* base) : base_(base) {}
  std::uint64_t* base_ = nullptr;
};

/// Handle to a machine-wide gauge (a value that goes up and down).
class Gauge {
 public:
  Gauge() = default;
  void set(std::uint64_t v) { *slot_ = v; }
  std::uint64_t value() const { return *slot_; }

 private:
  friend class MetricRegistry;
  explicit Gauge(std::uint64_t* slot) : slot_(slot) {}
  std::uint64_t* slot_ = nullptr;
};

/// Handle to a fixed-bucket histogram. Bucket i counts observations
/// <= bounds[i] (first matching bound, linear probe — bucket counts are
/// small and fixed at registration); one extra bucket counts overflows.
/// The slot layout is [bucket 0 .. bucket n-1, overflow, sum, count].
class Histogram {
 public:
  Histogram() = default;
  void observe(std::uint64_t v) {
    std::size_t i = 0;
    while (i < nbounds_ && v > bounds_[i]) ++i;
    base_[i]++;
    base_[nbounds_ + 1] += v;  // sum
    base_[nbounds_ + 2]++;     // count
  }
  std::uint64_t count() const { return base_[nbounds_ + 2]; }
  std::uint64_t sum() const { return base_[nbounds_ + 1]; }

 private:
  friend class MetricRegistry;
  Histogram(std::uint64_t* base, const std::uint64_t* bounds,
            std::size_t nbounds)
      : base_(base), bounds_(bounds), nbounds_(nbounds) {}
  std::uint64_t* base_ = nullptr;
  const std::uint64_t* bounds_ = nullptr;
  std::size_t nbounds_ = 0;
};

class MetricRegistry {
 public:
  /// One registered metric with its slots. `width` slots for counters and
  /// gauges (num_cores for counter vectors, 1 otherwise); histograms hold
  /// bounds.size() + 3 slots (buckets, overflow, sum, count).
  struct Metric {
    Component component;
    std::string name;
    MetricKind kind;
    bool per_core = false;
    std::vector<std::uint64_t> bounds;  ///< histogram bucket upper bounds
    std::size_t width = 1;
    std::unique_ptr<std::uint64_t[]> slots;  ///< owned storage (null if ext)
    /// External storage: slot i lives at ext[i * stride]. Set for metrics
    /// registered via counter_vec_external(), whose hot-path storage is a
    /// packed array-of-structs owned by the component; the registry only
    /// ever reads through this pointer.
    const std::uint64_t* ext = nullptr;
    std::size_t stride = 1;

    std::uint64_t slot(std::size_t i) const {
      return ext != nullptr ? ext[i * stride] : slots[i];
    }
    std::uint64_t total() const {
      std::uint64_t t = 0;
      for (std::size_t i = 0; i < width; ++i) t += slot(i);
      return t;
    }
  };

  explicit MetricRegistry(int num_cores) : num_cores_(num_cores) {
    assert(num_cores >= 1);
  }

  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // ---- Registration (cold path; construction time only) ----
  Counter counter(Component c, std::string name);
  CounterVec counter_vec(Component c, std::string name);
  /// counter_vec(), unless `name` is already registered: then a handle to
  /// that registry-owned vector, so a runtime attached to the same
  /// registry more than once keeps counting into one metric.
  CounterVec counter_vec_shared(Component c, std::string name) {
    const Metric* m = find(c, name);
    assert(m == nullptr || m->slots != nullptr);
    return m != nullptr ? CounterVec(m->slots.get())
                        : counter_vec(c, std::move(name));
  }
  /// Register a per-core counter whose storage the *component* owns: slot i
  /// is read from base[i * stride]. For hot paths that touch several of a
  /// core's counters per event, a packed per-core struct keeps them on one
  /// cache line where registry-owned one-array-per-metric storage cannot.
  /// `base` must remain valid and immovable for the registry's lifetime.
  void counter_vec_external(Component c, std::string name,
                            const std::uint64_t* base, std::size_t stride);
  /// counter_vec_external() for each named std::uint64_t field of T: core
  /// i's record sits `stride` bytes past core i-1's (default: a T array).
  template <typename T, std::size_t N>
  void counter_fields_external(
      Component c, const T* base,
      const std::pair<const char*, std::uint64_t T::*> (&fields)[N],
      std::size_t stride = sizeof(T)) {
    assert(stride % sizeof(std::uint64_t) == 0);
    for (const auto& [name, field] : fields) {
      counter_vec_external(c, name, &(base->*field),
                           stride / sizeof(std::uint64_t));
    }
  }
  Gauge gauge(Component c, std::string name);
  Histogram histogram(Component c, std::string name,
                      std::vector<std::uint64_t> bounds);

  // ---- Cold-path inspection ----
  int num_cores() const { return num_cores_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// The metric named `name` in component `c`, or nullptr. Linear scan:
  /// only snapshot/dump/test code calls this.
  const Metric* find(Component c, const std::string& name) const;
  /// Sum over slots of `c`/`name`, or 0 if never registered (a Machine
  /// without an O-structure manager simply has no osm/gc metrics).
  std::uint64_t total(Component c, const std::string& name) const {
    const Metric* m = find(c, name);
    return m == nullptr ? 0 : m->total();
  }
  /// Per-core slot value, or 0 if absent.
  std::uint64_t value(Component c, const std::string& name,
                      CoreId core) const {
    const Metric* m = find(c, name);
    if (m == nullptr || static_cast<std::size_t>(core) >= m->width) return 0;
    return m->slot(static_cast<std::size_t>(core));
  }

  /// Deterministic text dump: one line per metric in registration order.
  /// Equal simulations produce byte-identical dumps regardless of host
  /// threading.
  void dump(std::ostream& os) const;
  std::string dump_str() const;

 private:
  Metric& add(Component c, std::string name, MetricKind kind,
              std::size_t width);

  int num_cores_;
  std::vector<Metric> metrics_;
};

}  // namespace osim::telemetry
