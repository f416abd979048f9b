#!/usr/bin/env bash
# Behaviour check for refactors: runs the frozen benchmark's one-second pass
# (seed SEED from the environment, default 1) on a parent commit and on the
# working tree, and diffs the deterministic `# exact:` counters field by field,
# per workload.
#   SEED=7 scripts/exact-diff.sh PARENT-REF [ALLOWED-FIELD ...]
# Exits non-zero when a field that is not allowed to move differs, naming the
# seed and each such field on stderr. The parent's committed files are copied
# under .bench_build/, and the copies of other parents removed
# (parent-tree.sh); both trees build into the one .bench_build/ (Go's cache is
# content-addressed, so they share it).
set -euo pipefail
parent=${1:?usage: exact-diff.sh PARENT-REF [ALLOWED-FIELD ...]}
shift
seed=${SEED:-1}
root=$(git rev-parse --show-toplevel)
source "$root/scripts/parent-tree.sh"
build=$root/.bench_build
tree=$(parent_tree "$parent")

exact() {
	(cd "$1" && CARGO_TARGET_DIR=$build bash benchmark/run.sh -seconds 1 -seed "$seed") | exact_counters
}
exact "$tree" >"$build/exact-parent-$seed.txt"
exact "$root" >"$build/exact-change-$seed.txt"
report=$build/exact-diff-$seed.txt
status=0
diff_exact "$build/exact-parent-$seed.txt" "$build/exact-change-$seed.txt" "$@" >"$report" || status=$?
echo "== seed $seed"
cat "$report"
if ((status)); then
	grep -E 'DIFFERS|NEW FIELD|MISSING' "$report" | sed "s/^/exact-diff: seed $seed: /" >&2
	exit "$status"
fi
