// osim-mc: systematic interleaving exploration of the concurrent engine.
//
// Runs a litmus program (workloads/opstream.hpp) through
// ConcurrentVersionStore under the cooperative scheduler and enumerates
// its interleavings (analysis/explore.hpp): exhaustive DFS, sleep-set
// partial-order reduction by default, optional preemption bound. Every
// schedule is checked for chain integrity, protocol violations, and
// equivalence with the serial VersionStore oracle. A violating schedule
// (or, with --record, the first schedule) serializes to a text replay
// file that `osim-mc --replay FILE` re-executes deterministically.
//
// Exit status: 0 = explored clean / replay reproduced byte-identically,
// 1 = a violating schedule was found, 2 = usage, parse, or replay
// divergence errors.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/explore.hpp"
#include "core/fault_injection.hpp"
#include "workloads/opstream.hpp"

namespace {

using osim::analysis::ExploreResult;
using osim::analysis::McOptions;
using osim::analysis::McProgram;

[[noreturn]] void usage(int code) {
  std::fprintf(
      stderr,
      "usage: osim-mc --list\n"
      "       osim-mc --program NAME [options]\n"
      "       osim-mc --replay FILE [--record FILE]\n"
      "  --list             print the litmus programs and exit\n"
      "  --program NAME     explore NAME's interleavings exhaustively\n"
      "  --mode por|naive   sleep-set reduction (default) or plain DFS\n"
      "  --preemptions N    CHESS-style bound on preemptive switches\n"
      "  --max-schedules N  exploration cap (default 1048576)\n"
      "  --checked          attach the online protocol checker (reads\n"
      "                     serialize, so the schedule space differs)\n"
      "  --inject SPEC      explore under a deterministic fault plan\n"
      "                     (core/fault_injection.hpp grammar, e.g.\n"
      "                     pool@2,deadlock:0.01,seed=7); recorded in the\n"
      "                     replay file and re-applied on --replay\n"
      "  --keep-going       keep exploring past the first violation\n"
      "  --record FILE      write a replay file: the violating schedule\n"
      "                     if one was found, else the first schedule\n"
      "  --compare-reduction  explore por and naive, report the ratio\n"
      "  --replay FILE      re-execute a recorded schedule; exits 0 only\n"
      "                     on byte-identical reproduction\n");
  std::exit(code);
}

std::uint64_t parse_count(const char* flag, const char* val) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(val, &end, 10);
  if (end == val || *end != '\0') {
    std::fprintf(stderr, "osim-mc: bad %s value '%s'\n", flag, val);
    usage(2);
  }
  return n;
}

/// The OSIM_MC_SEEDED_BUG value this binary's engine was compiled with.
/// The production tool always links the clean engine; the seeded test
/// binaries drive explore() directly rather than through this CLI.
constexpr int kEngineSeed =
#if defined(OSIM_MC_SEEDED_BUG)
    OSIM_MC_SEEDED_BUG;
#else
    0;
#endif

int list_programs() {
  for (const McProgram& p : osim::mc_litmus_programs()) {
    std::size_t ops = p.setup.size();
    for (const auto& t : p.threads) ops += t.size();
    std::printf("%-14s %zu threads, %zu ops  %s\n", p.name.c_str(),
                p.threads.size(), ops, p.summary.c_str());
  }
  return 0;
}

void report(const char* mode, const ExploreResult& res) {
  std::printf("%-6s %llu schedules, %llu decisions, max depth %llu%s\n",
              mode, static_cast<unsigned long long>(res.schedules),
              static_cast<unsigned long long>(res.steps_total),
              static_cast<unsigned long long>(res.max_depth),
              res.complete ? "" : " (capped)");
}

int explore_one(const McProgram& prog, const McOptions& opt,
                const std::string& record_path, bool compare_reduction) {
  ExploreResult res = osim::analysis::explore(prog, opt);
  report(opt.por ? "por" : "naive", res);
  if (res.violation_found) {
    std::printf("VIOLATION (%s): %s\n", res.example.violation_kind.c_str(),
                res.example.violation_detail.c_str());
    std::printf("  schedule: %s\n",
                osim::analysis::summarize_outcome(res.example).c_str());
  } else {
    std::printf("clean: %s\n",
                osim::analysis::summarize_outcome(res.example).c_str());
  }
  if (compare_reduction) {
    McOptions other = opt;
    other.por = !opt.por;
    ExploreResult alt = osim::analysis::explore(prog, other);
    report(other.por ? "por" : "naive", alt);
    const ExploreResult& naive = opt.por ? alt : res;
    const ExploreResult& por = opt.por ? res : alt;
    if (por.schedules > 0) {
      std::printf("reduction: %.2fx (%llu -> %llu)\n",
                  static_cast<double>(naive.schedules) /
                      static_cast<double>(por.schedules),
                  static_cast<unsigned long long>(naive.schedules),
                  static_cast<unsigned long long>(por.schedules));
    }
  }
  if (!record_path.empty()) {
    const auto& out = res.violation_found ? res.example : res.first;
    std::ofstream f(record_path, std::ios::binary);
    f << osim::analysis::serialize_schedule(prog, opt, out);
    if (!f.good()) {
      std::fprintf(stderr, "osim-mc: cannot write %s\n",
                   record_path.c_str());
      return 2;
    }
    std::printf("recorded %zu-step schedule to %s\n", out.steps.size(),
                record_path.c_str());
  }
  return res.violation_found ? 1 : 0;
}

int replay_file(const std::string& path, const std::string& record_path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) {
    std::fprintf(stderr, "osim-mc: cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  const std::string text = buf.str();

  osim::analysis::ReplayFile file = osim::analysis::parse_schedule(text);
  const McProgram* prog = osim::find_mc_litmus(file.program);
  if (prog == nullptr) {
    std::fprintf(stderr, "osim-mc: replay names unknown program '%s'\n",
                 file.program.c_str());
    return 2;
  }
  McOptions opt;
  opt.checked = file.checked;
  opt.seeded = kEngineSeed;
  // Replay under the recorded fault plan; the copy also makes the
  // round-trip serialization below re-emit the file's inject line.
  McProgram rprog = *prog;
  osim::analysis::inject_faults(rprog, file.inject);
  osim::analysis::ScheduleOutcome out =
      osim::analysis::replay_schedule(rprog, opt, file);
  const std::string round_trip =
      osim::analysis::serialize_schedule(rprog, opt, out);
  if (round_trip != text) {
    std::fprintf(stderr,
                 "osim-mc: replay of %s did not reproduce byte-identically\n",
                 path.c_str());
    return 2;
  }
  std::printf("replayed %s: %s\n", file.program.c_str(),
              osim::analysis::summarize_outcome(out).c_str());
  if (!record_path.empty()) {
    std::ofstream rf(record_path, std::ios::binary);
    rf << round_trip;
  }
  return out.violation ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string program, replay_path, record_path, inject_spec;
  McOptions opt;
  opt.seeded = kEngineSeed;
  bool list = false;
  bool compare_reduction = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (++i >= argc) {
        std::fprintf(stderr, "osim-mc: %s needs a value\n", flag);
        usage(2);
      }
      return argv[i];
    };
    if (std::strcmp(a, "--list") == 0) {
      list = true;
    } else if (std::strcmp(a, "--program") == 0) {
      program = value(a);
    } else if (std::strcmp(a, "--replay") == 0) {
      replay_path = value(a);
    } else if (std::strcmp(a, "--record") == 0) {
      record_path = value(a);
    } else if (std::strcmp(a, "--mode") == 0) {
      const std::string mode = value(a);
      if (mode == "por") {
        opt.por = true;
      } else if (mode == "naive") {
        opt.por = false;
      } else {
        std::fprintf(stderr, "osim-mc: bad --mode '%s'\n", mode.c_str());
        usage(2);
      }
    } else if (std::strcmp(a, "--preemptions") == 0) {
      opt.preemption_bound = static_cast<int>(parse_count(a, value(a)));
    } else if (std::strcmp(a, "--max-schedules") == 0) {
      opt.max_schedules = parse_count(a, value(a));
    } else if (std::strcmp(a, "--checked") == 0) {
      opt.checked = true;
    } else if (std::strcmp(a, "--inject") == 0) {
      inject_spec = value(a);
      try {
        (void)osim::FaultPlan::parse(inject_spec);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "osim-mc: %s\n", e.what());
        usage(2);
      }
    } else if (std::strcmp(a, "--keep-going") == 0) {
      opt.stop_on_violation = false;
    } else if (std::strcmp(a, "--compare-reduction") == 0) {
      compare_reduction = true;
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage(0);
    } else {
      std::fprintf(stderr, "osim-mc: unknown argument '%s'\n", a);
      usage(2);
    }
  }

  try {
    if (list) return list_programs();
    if (!replay_path.empty()) return replay_file(replay_path, record_path);
    if (program.empty()) usage(2);
    const McProgram* prog = osim::find_mc_litmus(program);
    if (prog == nullptr) {
      std::fprintf(stderr,
                   "osim-mc: unknown program '%s' (--list to enumerate)\n",
                   program.c_str());
      return 2;
    }
    McProgram p = *prog;
    osim::analysis::inject_faults(p, inject_spec);
    return explore_one(p, opt, record_path, compare_reduction);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "osim-mc: %s\n", e.what());
    return 2;
  }
}
