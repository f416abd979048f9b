#!/usr/bin/env bash
# Behaviour check for refactors: runs the frozen benchmark's one-second pass
# (seed 1) on a parent commit and on the working tree, and diffs the
# deterministic `# exact:` counters field by field, per workload.
#   scripts/exact-diff.sh PARENT-REF [ALLOWED-FIELD ...]
# Exits non-zero when a field that is not allowed to move differs. The
# parent is a detached git worktree under .bench_build/, removed on exit;
# both trees build into the one .bench_build/ (Go's cache is content-
# addressed, so they share it).
set -euo pipefail
parent=${1:?usage: exact-diff.sh PARENT-REF [ALLOWED-FIELD ...]}
shift
root=$(git rev-parse --show-toplevel)
build=$root/.bench_build
tree=$build/exact-diff-parent
mkdir -p "$build"
git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
git -C "$root" worktree add --detach --force "$tree" "$parent" >/dev/null
trap 'git -C "$root" worktree remove --force "$tree"' EXIT

# exact DIR: one "workload field value" line per exact counter.
exact() {
	(cd "$1" && CARGO_TARGET_DIR=$build bash benchmark/run.sh -seconds 1 -seed 1) |
		awk '/^workload /{w=$2} /# exact:/{for(i=3;i<=NF;i++){split($i,kv,"=");print w,kv[1],kv[2]}}'
}
exact "$tree" >"$build/exact-parent.txt"
exact "$root" >"$build/exact-change.txt"

awk -v allow=" $* " '
	NR==FNR {parent[$1" "$2]=$3; next}
	{
		k=$1" "$2; note=""
		if (!(k in parent)) {note="NEW FIELD"; bad=1}
		else if (parent[k]!=$3) {
			if (index(allow," "$2" ")) note="differs (allowed)"; else {note="DIFFERS"; bad=1}
		}
		printf "%-14s %-18s %12s %12s %+10d  %s\n",$1,$2,parent[k],$3,$3-parent[k],note
		seen[k]=1
	}
	END {
		for (k in parent) if (!(k in seen)) {print k, "MISSING in the change"; bad=1}
		exit bad
	}' "$build/exact-parent.txt" "$build/exact-change.txt"
