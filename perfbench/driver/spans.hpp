// In-memory span recorder for the traced run.
//
// A span is one timed call across a layer boundary: its name, start and
// end (steady clock, ns), the span that caused it and the request (task
// id, ticket or cell index) it serves. Spans are kept in per-thread
// buffers so recording takes no lock, and are written out once, at exit.
// A span's *self time* is its duration minus the part of that interval its
// child spans cover (children may run on other threads: a pool run's
// tasks are its children).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t parent = 0;  ///< SpanId of the cause, 0 for a root
  std::uint32_t req = 0;     ///< request / task id the span serves
  std::uint16_t name = 0;
  std::uint16_t thread = 0;
};

/// Process-unique span handle: (thread buffer << 32) | (index + 1).
using SpanId = std::uint64_t;

/// Duration and self-time summary of every span with one name.
struct SpanStats {
  std::uint64_t count = 0;
  double total_s = 0;  ///< summed durations
  double self_s = 0;   ///< summed self times
  double p50_ns = 0, p99_ns = 0;  ///< duration percentiles
};

class SpanRecorder {
 public:
  /// `cap` bounds the spans kept per thread; later ones are counted as
  /// dropped (sizes are chosen so no traced phase reaches it).
  explicit SpanRecorder(std::size_t cap);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Intern a span name (cold path: call before the timed section).
  std::uint16_t name(const std::string& n);

  /// Open a span on the calling thread. Its parent is the innermost open
  /// span of this thread, or `parent` when given (cross-thread causes).
  SpanId open(std::uint16_t name, std::uint32_t req, SpanId parent = 0);
  void close(SpanId id);

  std::uint64_t recorded() const;
  /// Memory the span buffers hold.
  std::size_t bytes() const;
  std::uint64_t dropped() const;

  /// Summaries per name, computed over everything recorded.
  SpanStats stats(const std::string& name) const;

  /// Write every span as a binary file (format in perfbench/README.md).
  /// Returns false when the file cannot be written.
  bool write(const std::string& path) const;

  /// A span over a C++ scope; records nothing when `r` is null (the
  /// untraced passes of a traced run share code with the traced ones).
  class Scope {
   public:
    Scope(SpanRecorder* r, std::uint16_t name, std::uint32_t req,
          SpanId parent = 0)
        : r_(r), id_(r != nullptr ? r->open(name, req, parent) : 0) {}
    ~Scope() {
      if (r_ != nullptr) r_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* r_;
    SpanId id_;
  };

 private:
  struct Buf {
    std::vector<Span> spans;
    std::vector<std::uint32_t> open;  ///< indices of open spans
    std::uint64_t dropped = 0;
    std::uint16_t thread = 0;
  };
  Buf& local();
  void compute_self() const;

  const std::size_t cap_;
  const std::uint64_t serial_;
  mutable std::mutex mu_;  ///< guards bufs_ growth and names_
  std::vector<std::unique_ptr<Buf>> bufs_;
  std::vector<std::string> names_;
  mutable std::vector<std::vector<double>> self_ns_;  ///< per buf, per span
};

}  // namespace perfbench
