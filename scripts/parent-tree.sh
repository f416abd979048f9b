# Sourced by benchmark-ab.sh and exact-diff.sh.
#
# parent_tree REF prints a directory under .bench_build/ holding the committed
# files of REF, materialised with `git archive | tar -x` — a plain copy, like
# the fresh directory a clean checkout runs the benchmark in, and unlike a `git
# worktree` it needs no write access to .git. The directory is named after the
# commit, so it is extracted once and reused by later runs; every other
# tree-* directory there is a stale parent of an earlier run, and is removed
# (named on stderr with its size).
parent_tree() {
	local root sha dir old
	root=$(git rev-parse --show-toplevel)
	sha=$(git -C "$root" rev-parse --verify "$1^{commit}")
	dir=$root/.bench_build/tree-$sha
	for old in "$root"/.bench_build/tree-*; do
		if [[ -d $old && $old != "$dir" ]]; then
			echo "removing stale parent tree $old ($(du -sh "$old" | cut -f1))" >&2
			rm -rf "$old"
		fi
	done
	if [[ ! -e $dir/.extracted ]]; then
		rm -rf "$dir"
		mkdir -p "$dir"
		git -C "$root" archive "$sha" | tar -x -C "$dir"
		touch "$dir/.extracted"
	fi
	echo "$dir"
}

# exact_counters reads benchmark output on stdin and prints one
# "workload field value" line per `# exact:` counter.
exact_counters() {
	awk '/^workload /{w=$2} /# exact:/{for(i=3;i<=NF;i++){split($i,kv,"=");print w,kv[1],kv[2]}}'
}

# diff_exact PARENT-FILE CHANGE-FILE [ALLOWED-FIELD ...] prints the exact
# counters of both sides field by field and fails when a field that is not
# allowed to move differs, is new, or went missing.
diff_exact() {
	local parent=$1 change=$2
	shift 2
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
		}' "$parent" "$change"
}
