#!/usr/bin/env bash
# Behaviour check for refactors: runs the frozen benchmark's one-second pass
# (seed 1) on a parent commit and on the working tree, and diffs the
# deterministic `# exact:` counters field by field, per workload.
#   scripts/exact-diff.sh PARENT-REF [ALLOWED-FIELD ...]
# Exits non-zero when a field that is not allowed to move differs. The
# parent's committed files are copied under .bench_build/, and the copies of
# other parents removed (parent-tree.sh); both trees build into the one
# .bench_build/ (Go's cache is content-addressed, so they share it).
set -euo pipefail
parent=${1:?usage: exact-diff.sh PARENT-REF [ALLOWED-FIELD ...]}
shift
root=$(git rev-parse --show-toplevel)
source "$root/scripts/parent-tree.sh"
build=$root/.bench_build
tree=$(parent_tree "$parent")

exact() {
	(cd "$1" && CARGO_TARGET_DIR=$build bash benchmark/run.sh -seconds 1 -seed 1) | exact_counters
}
exact "$tree" >"$build/exact-parent.txt"
exact "$root" >"$build/exact-change.txt"
diff_exact "$build/exact-parent.txt" "$build/exact-change.txt" "$@"
