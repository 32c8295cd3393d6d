// Workload tests. The central property comes straight from the paper
// (Sec. IV-D): "The output of such parallel execution is identical to a
// sequential execution." Every versioned workload must produce exactly the
// sequential baseline's checksum, at every core count.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <tuple>

#include "workloads/binary_tree.hpp"
#include "workloads/hash_table.hpp"
#include "workloads/levenshtein.hpp"
#include "workloads/linked_list.hpp"
#include "workloads/matmul.hpp"
#include "workloads/opgen.hpp"
#include "workloads/rb_tree.hpp"

namespace osim {
namespace {

MachineConfig cfg(int cores) {
  MachineConfig c;
  c.num_cores = cores;
  return c;
}

DsSpec small_spec(int reads_per_write = 4, int scan_range = 1) {
  DsSpec s;
  s.initial_size = 200;
  s.ops = 160;
  s.reads_per_write = reads_per_write;
  s.scan_range = scan_range;
  s.seed = 1234;
  return s;
}

// ---------------------------------------------------------------------------
// Op generator

TEST(OpGen, InitialKeysAreDistinctAndSized) {
  const DsSpec s = small_spec();
  const auto keys = initial_keys(s);
  EXPECT_EQ(keys.size(), s.initial_size);
  std::set<std::uint64_t> uniq(keys.begin(), keys.end());
  EXPECT_EQ(uniq.size(), keys.size());
  for (auto k : keys) {
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, s.key_space());
  }
}

TEST(OpGen, RatioAndBalanceRespected) {
  DsSpec s = small_spec(4);
  s.ops = 1000;
  const auto ops = generate_ops(s);
  int reads = 0, inserts = 0, deletes = 0;
  for (const Op& op : ops) {
    switch (op.kind) {
      case OpKind::kLookup:
      case OpKind::kScan:
        ++reads;
        break;
      case OpKind::kInsert:
        ++inserts;
        break;
      case OpKind::kDelete:
        ++deletes;
        break;
    }
  }
  EXPECT_NEAR(static_cast<double>(reads) / (inserts + deletes), 4.0, 0.2);
  EXPECT_LE(std::abs(inserts - deletes), 1);
}

TEST(OpGen, ScanRangeSelectsScanKind) {
  const auto ops1 = generate_ops(small_spec(4, 1));
  const auto ops8 = generate_ops(small_spec(4, 8));
  EXPECT_TRUE(std::any_of(ops1.begin(), ops1.end(), [](const Op& o) {
    return o.kind == OpKind::kLookup;
  }));
  EXPECT_TRUE(std::any_of(ops8.begin(), ops8.end(), [](const Op& o) {
    return o.kind == OpKind::kScan;
  }));
}

TEST(OpGen, Deterministic) {
  const auto a = generate_ops(small_spec());
  const auto b = generate_ops(small_spec());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].key, b[i].key);
  }
}

// ---------------------------------------------------------------------------
// Parallel-versioned == sequential-unversioned, across core counts and op
// mixes, for every irregular data structure.

using SeqFn = RunResult (*)(Env&, const DsSpec&);
using ParFn = RunResult (*)(Env&, const DsSpec&, int);

struct WorkloadCase {
  const char* name;
  SeqFn seq;
  ParFn par;
};

class DsEquivalence
    : public ::testing::TestWithParam<std::tuple<WorkloadCase, int, int>> {};

TEST_P(DsEquivalence, ParallelVersionedMatchesSequential) {
  const auto& [wc, cores, rpw] = GetParam();
  const DsSpec spec = small_spec(rpw);
  Env seq_env(cfg(1));
  const RunResult seq = wc.seq(seq_env, spec);
  Env par_env(cfg(cores));
  const RunResult par = wc.par(par_env, spec, cores);
  EXPECT_EQ(par.checksum, seq.checksum) << wc.name << " cores=" << cores;
  EXPECT_GT(seq.cycles, 0u);
  EXPECT_GT(par.cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Structures, DsEquivalence,
    ::testing::Combine(
        ::testing::Values(
            WorkloadCase{"linked_list", linked_list_sequential,
                         linked_list_versioned},
            WorkloadCase{"binary_tree", binary_tree_sequential,
                         binary_tree_versioned},
            WorkloadCase{"hash_table", hash_table_sequential,
                         hash_table_versioned},
            WorkloadCase{"rb_tree", rb_tree_sequential, rb_tree_versioned}),
        ::testing::Values(1, 2, 4, 8),   // cores
        ::testing::Values(4, 1)),        // reads per write
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_c" +
             std::to_string(std::get<1>(info.param)) + "_r" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Workloads, ScansMatchSequentialAcrossRanges) {
  for (int range : {8, 64}) {
    const DsSpec spec = small_spec(3, range);
    Env seq_env(cfg(1));
    const RunResult seq = binary_tree_sequential(seq_env, spec);
    Env par_env(cfg(4));
    const RunResult par = binary_tree_versioned(par_env, spec, 4);
    EXPECT_EQ(par.checksum, seq.checksum) << "range " << range;
  }
}

TEST(Workloads, RwlockTreeSameOpsComplete) {
  // The rwlock baseline is not sequentially ordered, but read-only ops on a
  // read-only op stream must still match (no writers => same snapshots).
  DsSpec spec = small_spec(4);
  spec.ops = 100;
  spec.reads_per_write = 1 << 20;  // effectively read-only
  Env seq_env(cfg(1));
  const RunResult seq = binary_tree_sequential(seq_env, spec);
  Env par_env(cfg(4));
  const RunResult par = binary_tree_rwlock(par_env, spec, 4);
  EXPECT_EQ(par.checksum, seq.checksum);
}

TEST(Workloads, RwlockTreeMixedRunsToCompletion) {
  const DsSpec spec = small_spec(3, 8);
  Env env(cfg(8));
  const RunResult r = binary_tree_rwlock(env, spec, 8);
  EXPECT_GT(r.cycles, 0u);
}

// ---------------------------------------------------------------------------
// Regular workloads

TEST(Workloads, MatmulVersionedMatchesSequential) {
  MatmulSpec spec;
  spec.n = 20;
  Env seq_env(cfg(1));
  const RunResult seq = matmul_sequential(seq_env, spec);
  for (int cores : {1, 4, 8}) {
    Env par_env(cfg(cores));
    const RunResult par = matmul_versioned(par_env, spec, cores);
    EXPECT_EQ(par.checksum, seq.checksum) << cores;
  }
}

TEST(Workloads, MatmulParallelFasterThanSingleCoreVersioned) {
  MatmulSpec spec;
  spec.n = 24;
  Env e1(cfg(1));
  const Cycles c1 = matmul_versioned(e1, spec, 1).cycles;
  Env e8(cfg(8));
  const Cycles c8 = matmul_versioned(e8, spec, 8).cycles;
  EXPECT_LT(c8, c1);
  EXPECT_GT(static_cast<double>(c1) / c8, 3.0);  // near-linear workload
}

TEST(Workloads, LevenshteinVersionedMatchesSequential) {
  LevSpec spec;
  spec.n = 48;
  Env seq_env(cfg(1));
  const RunResult seq = levenshtein_sequential(seq_env, spec);
  for (int cores : {1, 4}) {
    Env par_env(cfg(cores));
    const RunResult par = levenshtein_versioned(par_env, spec, cores);
    EXPECT_EQ(par.checksum, seq.checksum) << cores;
  }
}

TEST(Workloads, LevenshteinKnownAnswer) {
  // Identical strings => distance 0 at every size; checks the DP itself.
  LevSpec spec;
  spec.n = 16;
  spec.seed = 5;
  Env env(cfg(2));
  const RunResult a = levenshtein_versioned(env, spec, 2);
  Env env2(cfg(1));
  const RunResult b = levenshtein_sequential(env2, spec);
  EXPECT_EQ(a.checksum, b.checksum);
}

// ---------------------------------------------------------------------------
// Red-black tree structural invariants

class RbInvariants : public ::testing::TestWithParam<unsigned> {};

TEST_P(RbInvariants, HoldAfterRandomInsertions) {
  std::mt19937_64 rng(GetParam());
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 500; ++i) keys.push_back(rng() % 10000 + 1);
  Env env(cfg(1));
  EXPECT_TRUE(rb_invariants_hold(env, keys));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RbInvariants,
                         ::testing::Values(1u, 7u, 42u, 1000u));

TEST(RbInvariants, SequentialAscendingInsertions) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 1; i <= 300; ++i) keys.push_back(i);
  Env env(cfg(1));
  EXPECT_TRUE(rb_invariants_hold(env, keys));
}

// ---------------------------------------------------------------------------
// Determinism of timing (not just results)

TEST(Workloads, CyclesAreReproducible) {
  const DsSpec spec = small_spec();
  Env a(cfg(4));
  Env b(cfg(4));
  const RunResult ra = binary_tree_versioned(a, spec, 4);
  const RunResult rb = binary_tree_versioned(b, spec, 4);
  EXPECT_EQ(ra.cycles, rb.cycles);
  EXPECT_EQ(ra.checksum, rb.checksum);
}

// Timed cycles and checksums of the data-structure workloads, recorded
// before the structures shared one op driver. Runs that only agree with
// each other cannot catch a change that moves, adds or drops one simulated
// access; these fixed values do. Update them only with a change that means
// to change the model.
struct GoldenRun {
  const char* name;
  int cores;  ///< 0: the sequential baseline
  int scan_range;
  Cycles cycles;
  std::uint64_t checksum;
};

constexpr GoldenRun kGoldenRuns[] = {
    {"linked_list", 0, 1, 228678, 0xa8f184348a766874ull},
    {"linked_list", 1, 1, 254936, 0xa8f184348a766874ull},
    {"linked_list", 4, 1, 120366, 0xa8f184348a766874ull},
    {"linked_list", 0, 8, 241027, 0x7f392c9019b4aa1bull},
    {"linked_list", 1, 8, 267285, 0x7f392c9019b4aa1bull},
    {"linked_list", 4, 8, 123170, 0x7f392c9019b4aa1bull},
    {"binary_tree", 0, 1, 45776, 0xa8f184348a766874ull},
    {"binary_tree", 1, 1, 64713, 0xa8f184348a766874ull},
    {"binary_tree", 4, 1, 35985, 0xa8f184348a766874ull},
    {"binary_tree", 0, 8, 65924, 0x7f392c9019b4aa1bull},
    {"binary_tree", 1, 8, 89651, 0x7f392c9019b4aa1bull},
    {"binary_tree", 4, 8, 47156, 0x7f392c9019b4aa1bull},
    {"hash_table", 0, 1, 20432, 0xa8f184348a766874ull},
    {"hash_table", 1, 1, 33392, 0xa8f184348a766874ull},
    {"hash_table", 4, 1, 19096, 0xa8f184348a766874ull},
    {"hash_table", 0, 8, 20432, 0xa8f184348a766874ull},
    {"hash_table", 1, 8, 33392, 0xa8f184348a766874ull},
    {"hash_table", 4, 8, 19096, 0xa8f184348a766874ull},
    {"rb_tree", 0, 1, 19404, 0xa8f184348a766874ull},
    {"rb_tree", 1, 1, 54694, 0xa8f184348a766874ull},
    {"rb_tree", 4, 1, 37521, 0xa8f184348a766874ull},
    {"rb_tree", 0, 8, 41359, 0x7f392c9019b4aa1bull},
    {"rb_tree", 1, 8, 79709, 0x7f392c9019b4aa1bull},
    {"rb_tree", 4, 8, 47116, 0x7f392c9019b4aa1bull},
    {"binary_tree_rwlock", 4, 1, 31308, 0x326d967ee0b8b397ull},
    {"binary_tree_rwlock", 4, 8, 36982, 0x2edb93d1d12e6ed1ull},
};

TEST(Workloads, TimedCyclesMatchRecordedValues) {
  const WorkloadCase structures[] = {
      {"linked_list", linked_list_sequential, linked_list_versioned},
      {"binary_tree", binary_tree_sequential, binary_tree_versioned},
      {"hash_table", hash_table_sequential, hash_table_versioned},
      {"rb_tree", rb_tree_sequential, rb_tree_versioned},
      {"binary_tree_rwlock", nullptr, binary_tree_rwlock},
  };
  for (const GoldenRun& g : kGoldenRuns) {
    const auto wc = std::find_if(
        std::begin(structures), std::end(structures),
        [&](const WorkloadCase& c) { return std::string(c.name) == g.name; });
    ASSERT_NE(wc, std::end(structures)) << g.name;
    const DsSpec spec = small_spec(4, g.scan_range);
    Env env(cfg(std::max(g.cores, 1)));
    const RunResult r =
        g.cores == 0 ? wc->seq(env, spec) : wc->par(env, spec, g.cores);
    EXPECT_EQ(r.cycles, g.cycles) << g.name << " cores=" << g.cores
                                  << " scan_range=" << g.scan_range;
    EXPECT_EQ(r.checksum, g.checksum) << g.name << " cores=" << g.cores
                                      << " scan_range=" << g.scan_range;
  }
}

}  // namespace
}  // namespace osim
