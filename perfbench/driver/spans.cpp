#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_map>

#include "common.hpp"

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_recorder_serial{1};

struct TlsBuf {
  std::uint64_t serial = 0;
  void* buf = nullptr;
};
thread_local TlsBuf t_buf;

SpanId make_id(std::uint16_t thread, std::size_t index) {
  return (static_cast<SpanId>(thread) << 32) | (index + 1);
}

}  // namespace

SpanRecorder::SpanRecorder(std::size_t cap)
    : cap_(cap), serial_(g_recorder_serial.fetch_add(1)) {}

std::uint16_t SpanRecorder::name(const std::string& n) {
  std::lock_guard<std::mutex> g(mu_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == n) return static_cast<std::uint16_t>(i);
  }
  names_.push_back(n);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

SpanRecorder::Buf& SpanRecorder::local() {
  if (t_buf.serial == serial_) return *static_cast<Buf*>(t_buf.buf);
  std::lock_guard<std::mutex> g(mu_);
  bufs_.push_back(std::make_unique<Buf>());
  Buf& b = *bufs_.back();
  b.thread = static_cast<std::uint16_t>(bufs_.size() - 1);
  b.spans.reserve(std::min<std::size_t>(cap_, 1 << 16));
  t_buf = TlsBuf{serial_, &b};
  return b;
}

SpanId SpanRecorder::open(std::uint16_t name, std::uint32_t req,
                          SpanId parent) {
  Buf& b = local();
  if (b.spans.size() >= cap_) {
    ++b.dropped;
    return 0;
  }
  if (parent == 0 && !b.open.empty()) parent = make_id(b.thread, b.open.back());
  Span s;
  s.parent = parent;
  s.req = req;
  s.name = name;
  s.thread = b.thread;
  b.open.push_back(static_cast<std::uint32_t>(b.spans.size()));
  b.spans.push_back(s);
  b.spans.back().start = now_ns();
  return make_id(b.thread, b.open.back());
}

void SpanRecorder::close(SpanId id) {
  const std::int64_t t = now_ns();
  if (id == 0) return;
  Buf& b = local();
  b.spans[(id & 0xffffffffu) - 1].end = t;
  b.open.pop_back();
}

std::uint64_t SpanRecorder::recorded() const {
  std::lock_guard<std::mutex> g(mu_);
  std::uint64_t n = 0;
  for (const auto& b : bufs_) n += b->spans.size();
  return n;
}

std::size_t SpanRecorder::bytes() const {
  std::lock_guard<std::mutex> g(mu_);
  std::size_t n = 0;
  for (const auto& b : bufs_) n += b->spans.capacity() * sizeof(Span);
  return n;
}

std::uint64_t SpanRecorder::dropped() const {
  std::lock_guard<std::mutex> g(mu_);
  std::uint64_t n = 0;
  for (const auto& b : bufs_) n += b->dropped;
  return n;
}

void SpanRecorder::compute_self() const {
  // Child intervals grouped by parent, then each parent's self time is its
  // duration minus the union of its children's intervals clipped to it.
  std::unordered_map<SpanId, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const auto& b : bufs_) {
    for (const Span& s : b->spans) {
      if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
    }
  }
  self_ns_.assign(bufs_.size(), {});
  for (std::size_t bi = 0; bi < bufs_.size(); ++bi) {
    const Buf& b = *bufs_[bi];
    std::vector<double>& out = self_ns_[bi];
    out.resize(b.spans.size());
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      const Span& s = b.spans[i];
      double covered = 0;
      auto it = children.find(make_id(b.thread, i));
      if (it != children.end()) {
        auto& iv = it->second;
        std::sort(iv.begin(), iv.end());
        std::int64_t lo = 0, hi = 0;
        bool have = false;
        for (auto [cs, ce] : iv) {
          cs = std::max(cs, s.start);
          ce = std::min(ce, s.end);
          if (ce <= cs) continue;
          if (have && cs <= hi) {
            hi = std::max(hi, ce);
            continue;
          }
          if (have) covered += static_cast<double>(hi - lo);
          lo = cs;
          hi = ce;
          have = true;
        }
        if (have) covered += static_cast<double>(hi - lo);
      }
      out[i] = static_cast<double>(s.end - s.start) - covered;
    }
  }
}

SpanStats SpanRecorder::stats(const std::string& n) const {
  std::lock_guard<std::mutex> g(mu_);
  SpanStats st;
  std::uint16_t id = 0;
  bool known = false;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == n) {
      id = static_cast<std::uint16_t>(i);
      known = true;
    }
  }
  if (!known) return st;
  if (self_ns_.size() != bufs_.size()) compute_self();
  std::vector<std::int64_t> dur;
  for (std::size_t bi = 0; bi < bufs_.size(); ++bi) {
    const Buf& b = *bufs_[bi];
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      const Span& s = b.spans[i];
      if (s.name != id) continue;
      dur.push_back(s.end - s.start);
      st.total_s += static_cast<double>(s.end - s.start) * 1e-9;
      st.self_s += self_ns_[bi][i] * 1e-9;
    }
  }
  st.count = dur.size();
  st.p50_ns = quantile(dur, 0.5);
  st.p99_ns = quantile(dur, 0.99);
  return st;
}

bool SpanRecorder::write(const std::string& path) const {
  std::lock_guard<std::mutex> g(mu_);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite("OSIMSPN1", 1, 8, f) == 8;
  const auto put32 = [&](std::uint32_t v) {
    ok = ok && std::fwrite(&v, sizeof v, 1, f) == 1;
  };
  put32(static_cast<std::uint32_t>(names_.size()));
  for (const std::string& n : names_) {
    put32(static_cast<std::uint32_t>(n.size()));
    ok = ok && std::fwrite(n.data(), 1, n.size(), f) == n.size();
  }
  std::uint64_t total = 0;
  for (const auto& b : bufs_) total += b->spans.size();
  ok = ok && std::fwrite(&total, sizeof total, 1, f) == 1;
  for (const auto& b : bufs_) {
    ok = ok && std::fwrite(b->spans.data(), sizeof(Span), b->spans.size(),
                           f) == b->spans.size();
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
