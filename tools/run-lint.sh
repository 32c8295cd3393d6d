#!/usr/bin/env bash
# clang-tidy over the simulator sources using the repo's .clang-tidy
# profile and the compile database from the default build directory.
#
# Degrades gracefully: toolchains without clang-tidy (the perf container
# ships GCC only) skip with a notice and exit 0, so CI lanes can call this
# unconditionally and only clang-equipped lanes enforce it.
#
# Usage: tools/run-lint.sh [BUILD_DIR] [JOBS]
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
jobs="${2:-$(nproc)}"

# Layering lint (toolchain-free, always enforced): the backend-agnostic
# engine layer must stay consumable by everything above it, so src/core
# may depend only on core/, sim/, and telemetry/ headers — never on
# runtime/, bench/, or analysis/. A violation here is how facade
# abstractions rot: the shared layer quietly reaches back up the stack.
layering_bad=$(grep -rn '#include "\(runtime\|bench\|analysis\)/' src/core || true)
if [ -n "$layering_bad" ]; then
  echo "run-lint: LAYERING VIOLATION — src/core includes an upper layer:"
  echo "$layering_bad"
  exit 1
fi
echo "run-lint: layering OK (src/core depends only on core/, sim/, telemetry/)"

# Shim lint (toolchain-free, always enforced): each capability is reachable
# one way only, so src/ holds no [[deprecated]] aliases and no forwarding
# headers — headers whose only content, past comments, blank lines and
# `#pragma once`, is #include lines.
shim_bad=$(grep -rn '\[\[deprecated' src || true)
while IFS= read -r h; do
  body=$(grep -v -e '^[[:space:]]*$' -e '^[[:space:]]*//' \
                 -e '^#pragma once' "$h" || true)
  if [ -n "$body" ] && ! grep -qv '^#include ' <<< "$body"; then
    shim_bad+="${shim_bad:+$'\n'}$h: forwarding header"
  fi
done < <(find src \( -name '*.hpp' -o -name '*.h' \) | sort)
if [ -n "$shim_bad" ]; then
  echo "run-lint: SHIM — delete it and point callers at the real API:"
  echo "$shim_bad"
  exit 1
fi
echo "run-lint: no shims (no [[deprecated]], no forwarding headers in src/)"

# Seqlock lint (toolchain-free, always enforced): the concurrent engine
# opens every seqlock write window through its SeqWrite guard, whose body
# holds the release fence optimistic readers rely on. A sequence-word
# store anywhere else in the file is a hand-written window that can drop
# that fence.
seq_src=src/core/concurrent_store.cpp
seq_bad=$(awk '
  /^struct ConcurrentVersionStore::SeqWrite / { guard = 1 }
  !guard && /seq\.(store|exchange|fetch_|compare_exchange)/ {
    print FILENAME ":" FNR ": " $0
  }
  guard && /^};/ { guard = 0 }
' "$seq_src")
if ! grep -q '^struct ConcurrentVersionStore::SeqWrite ' "$seq_src"; then
  seq_bad+="${seq_bad:+$'\n'}$seq_src: SeqWrite guard not found"
fi
if [ -n "$seq_bad" ]; then
  echo "run-lint: SEQLOCK — open the write window with SeqWrite instead:"
  echo "$seq_bad"
  exit 1
fi
echo "run-lint: seqlock OK (every write window in $seq_src is a SeqWrite)"

# Fault lint (toolchain-free, always enforced): the ISA misuse faults both
# engines raise are worded once, by the helpers in src/core/fault.hpp. An
# engine that builds one of those faults itself can drift from the other
# engine's wording.
fault_src=(src/core/version_store.cpp src/core/version_list.cpp
           src/core/concurrent_store.cpp)
fault_kinds='InvalidAddress|VersionedAccessToUnversionedPage'
fault_kinds+='|ConventionalAccessToVersionedPage|NotLockOwner'
fault_kinds+='|RenameTargetExists|VersionAlreadyExists'
fault_re="OFault\\(FaultKind::k($fault_kinds)\\b"
fault_re+='|injected deadlock timeout|refused \(injected\)'
fault_bad=$(grep -nE "$fault_re" "${fault_src[@]}" || true)
if [ -n "$fault_bad" ]; then
  echo "run-lint: FAULT — raise it through its src/core/fault.hpp helper:"
  echo "$fault_bad"
  exit 1
fi
echo "run-lint: faults OK (shared ISA faults come from src/core/fault.hpp)"

# Counter lint (toolchain-free, always enforced): both engines and the task
# pool count in the engine's telemetry::MetricRegistry, and benches and
# tools write it out with bench::metrics_json. A parallel stats struct, or
# engine counters copied by hand into JSON keys of a tool's own, forks the
# counter vocabulary again.
counter_key='"(concurrent|chaos)/(aborts|aborted_|retries|giveups|backoff_us)'
counter_bad=$({
  grep -rnwE '(Engine|Recovery)Stats' src bench tools
  grep -rnE "$counter_key" bench tools
} || true)
if [ -n "$counter_bad" ]; then
  echo "run-lint: COUNTERS — count in the engine's MetricRegistry instead:"
  echo "$counter_bad"
  exit 1
fi
echo "run-lint: counters OK (one MetricRegistry vocabulary, no hand-built keys)"

# Op-driver lint (toolchain-free, always enforced): the data-structure
# workloads run their op mix through the op drivers in
# src/workloads/runner.hpp, which dispatch each op kind to the structure's
# uniform interface. A switch over OpKind anywhere else in src/workloads
# is a hand-copied driver.
driver_bad=$(grep -rn 'case OpKind::' src/workloads \
                  --exclude='runner.*' --exclude='opgen.*' || true)
if [ -n "$driver_bad" ]; then
  echo "run-lint: OP DRIVER — run the ops through src/workloads/runner.hpp:"
  echo "$driver_bad"
  exit 1
fi
echo "run-lint: op drivers OK (OpKind is dispatched only in src/workloads/runner.*)"

if ! command -v clang-tidy > /dev/null 2>&1; then
  echo "run-lint: clang-tidy not installed; skipping (install LLVM to lint)"
  exit 0
fi

if [ ! -f "$build_dir/compile_commands.json" ]; then
  echo "run-lint: generating compile database in $build_dir"
  cmake -B "$build_dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
fi

# Lint the first-party translation units; generated/third-party code and
# the assembly shim are out of scope.
mapfile -t sources < <(git ls-files 'src/**/*.cpp' 'bench/*.cpp' \
                                    'tools/*.cpp')
echo "run-lint: ${#sources[@]} files, -j$jobs"

if command -v run-clang-tidy > /dev/null 2>&1; then
  run-clang-tidy -p "$build_dir" -j "$jobs" -quiet "${sources[@]}"
else
  status=0
  for f in "${sources[@]}"; do
    clang-tidy -p "$build_dir" --quiet "$f" || status=1
  done
  exit "$status"
fi
