#!/usr/bin/env bash
# Alternating pairs of the frozen benchmark, parent commit against the working
# tree: the measurement a claim on a gated metric rests on (choosing-metrics
# guide, section 8).
#   scripts/benchmark-ab.sh PARENT-REF [WORKLOAD|all] [PAIRS] [ALLOWED-FIELD ...]
#   SEED=7 RUN_SECONDS=20 scripts/benchmark-ab.sh HEAD~1 point-history 10
# Each pair runs `bash benchmark/run.sh -seed S -seconds N [-workload W]`
# untraced once in a copy of the parent's committed files (parent-tree.sh,
# which removes the copies of other parents) and once here, the parent first
# in odd pairs and the change first in even ones.
# Every pair's `# exact:` counters must match between the sides (fields named
# after PAIRS may differ); then, per workload and gated metric: each side's
# median and quartiles, the change's wins/losses/ties over the pairs, and a
# verdict by BENCHMARK.json's direction and bound — a gain is claimable with
# at least nine wins in ten pairs and medians further apart than the parent's
# own interquartile distance; a loss beyond the bound fails the script; a
# parent spread wider than the bound leaves the metric unresolved. A null A/A
# of the working tree is `PARENT=$(git stash create)` after `git add -A`. Raw
# values stay in .bench_build/ab/.
# Every run appends one row per workload and gated metric to the checked-in
# BENCH_trajectory.json (one JSON object a line): the PR (one past the newest
# "PR N:" subject in the parent's history), the commit measured (null for a
# tree with uncommitted changes, whose git tree hash is always recorded), the
# parent, seed, pairs and seconds, both sides' median and quartiles, the
# wins/losses/ties and verdict, the change's eight exact counters and the
# box: CPUs, CPU model, Go version and how many synchronous 4 KiB writes one
# second holds.
set -euo pipefail
parent=${1:?usage: benchmark-ab.sh PARENT-REF [WORKLOAD|all] [PAIRS] [ALLOWED-FIELD ...]}
workload=${2:-all}
pairs=${3:-10}
shift $(($# < 3 ? $# : 3))
seed=${SEED:-1}
seconds=${RUN_SECONDS:-20}
root=$(git rev-parse --show-toplevel)
source "$root/scripts/parent-tree.sh"
build=$root/.bench_build
out=$build/ab
tree=$(parent_tree "$parent")
rm -rf "$out"
mkdir -p "$out"
args=(-seed "$seed" -seconds "$seconds" -trace 0)
[[ $workload == all ]] || args+=(-workload "$workload")

# run SIDE PAIR: one benchmark run; the sides build into their own directories
# so neither relinks the other's binary between runs.
run() {
	local dir=$root target=$build
	[[ $1 == parent ]] && dir=$tree target=$build/ab-parent
	(cd "$dir" && CARGO_TARGET_DIR=$target bash benchmark/run.sh "${args[@]}") >"$out/$1-$2.txt"
	exact_counters <"$out/$1-$2.txt" >"$out/$1-$2.exact"
	awk -v side="$1" -v pair="$2" '/^workload /{w=$2} /^  [a-z_]+ +[-0-9.e+]+ [A-Za-z]+$/{print side, pair, w, $1, $2}' "$out/$1-$2.txt" >>"$out/values.txt"
}

for ((p = 1; p <= pairs; p++)); do
	order=(parent change)
	((p % 2)) || order=(change parent)
	for side in "${order[@]}"; do
		echo "pair $p/$pairs: $side ($workload, seed $seed, $seconds s)" >&2
		run "$side" "$p"
	done
	diff_exact "$out/parent-$p.exact" "$out/change-$p.exact" "$@" >"$out/exact-$p.txt" ||
		{ cat "$out/exact-$p.txt"; echo "pair $p: exact counters differ" >&2; exit 1; }
done
echo "exact counters: identical on all $pairs pairs${*:+ (allowed to differ: $*)}"

# What the trajectory rows say about the runs: which trees, and which box.
fsync_probe() {
	local f=$build/fsync-probe
	timeout 1 dd if=/dev/zero of="$f" bs=4096 count=1000000 oflag=dsync 2>/dev/null || true
	echo $(($(stat -c %s "$f") / 4096))
	rm -f "$f"
}
pr=$(git -C "$root" log -50 --format=%s "$parent" | awk '!n && /^PR [0-9]+:/ {sub(/:.*/, ""); n = $2 + 1} END {if (n) print n}')
snap=$(git -C "$root" stash create)
commit=null
[[ -n $snap ]] || commit="\"$(git -C "$root" rev-parse HEAD)\""
cpu=$(awk -F': *' '/^model name/ {print $2; exit}' /proc/cpuinfo | tr -d '"\\')
box=$(printf '{"nproc":%d,"cpu":"%s","go":"%s","fsync_per_s":%d}' "$(nproc)" "$cpu" "$(go env GOVERSION)" "$(fsync_probe)")

# The direction of each gated metric comes from BENCHMARK.json's end_to_end
# list (pretty-printed: one "name"/"better" per line).
: >"$out/rows.json"
awk -v spec="$root/BENCHMARK.json" -v exact="$out/change-$pairs.exact" -v rows="$out/rows.json" \
	-v pr="${pr:-null}" -v commit="$commit" -v tree="$(git -C "$root" rev-parse "${snap:-HEAD}^{tree}")" \
	-v parent="$(git -C "$root" rev-parse --verify "$parent^{commit}")" -v seed="$seed" -v seconds="$seconds" -v box="$box" '
	FILENAME==spec {
		if (/"end_to_end"/) e2e=1; else if (/"per_layer"/) e2e=0
		if (e2e && /"name"/) {split($0,q,"\""); name=q[4]}
		if (e2e && /"better"/) {split($0,q,"\""); better[name]=q[4]}
		if (e2e && /"bound"/) {split($0,q,/[:,]/); bound[name]=q[2]+0}
		next
	}
	FILENAME==exact {ex[$1]=ex[$1] (ex[$1]=="" ? "" : ",") "\""$2"\":"$3; next}
	{v[$1,$3,$4,$2]=$5; keys[$3" "$4]=1; if ($2>n) n=$2}
	function quartile(a, cnt, f,   pos, lo) {
		pos=(cnt-1)*f; lo=int(pos)
		return lo+1<cnt ? a[lo+1]+(a[lo+2]-a[lo+1])*(pos-lo) : a[cnt]
	}
	function summarise(side, w, m, s,   i, j, t, cnt, a) {
		cnt=0
		for (i=1;i<=n;i++) if ((side,w,m,i) in v) a[++cnt]=v[side,w,m,i]
		for (i=2;i<=cnt;i++) for (j=i;j>1&&a[j-1]>a[j];j--) {t=a[j];a[j]=a[j-1];a[j-1]=t}
		s["q1"]=quartile(a,cnt,.25); s["med"]=quartile(a,cnt,.5); s["q3"]=quartile(a,cnt,.75)
	}
	END {
		printf "%-14s %-22s %-31s %-31s %8s  %-9s %s\n","workload","metric","parent median [q1, q3]","change median [q1, q3]","delta","w/l/t","verdict"
		for (k in keys) {
			split(k,wm," "); w=wm[1]; m=wm[2]
			if (!(m in better)) continue
			summarise("parent",w,m,P); summarise("change",w,m,C)
			win=loss=tie=0
			for (i=1;i<=n;i++) {
				d=v["change",w,m,i]-v["parent",w,m,i]
				if (better[m]=="lower") d=-d
				if (d>0) win++; else if (d<0) loss++; else tie++
			}
			gain=C["med"]-P["med"]; if (better[m]=="lower") gain=-gain
			iqr=P["q3"]-P["q1"]; base=P["med"]<0 ? -P["med"] : P["med"]
			if (tie==n) verdict="identical"
			else if (win*10>=9*n && gain>iqr) verdict=n>=10 ? "better (claimable)" : "better (under 10 pairs)"
			else if (-gain>bound[m]*base) {verdict="WORSE BEYOND ITS BOUND"; bad=1}
			else if (iqr>bound[m]*base) verdict="unresolved (spread > bound)"
			else verdict="inside its bound"
			printf "%-14s %-22s %-31s %-31s %+7.1f%%  %-9s %s\n", w, m,
				sprintf("%.4f [%.4f, %.4f]",P["med"],P["q1"],P["q3"]),
				sprintf("%.4f [%.4f, %.4f]",C["med"],C["q1"],C["q3"]),
				P["med"] ? 100*(C["med"]-P["med"])/P["med"] : 0, win"/"loss"/"tie, verdict
			printf "{\"pr\":%s,\"source\":\"scripts/benchmark-ab.sh\",\"commit\":%s,\"tree\":\"%s\",\"parent\":\"%s\",\"seed\":%d,\"pairs\":%d,\"seconds\":%d,\"workload\":\"%s\",\"metric\":\"%s\",\"parent_median\":%.10g,\"parent_q1\":%.10g,\"parent_q3\":%.10g,\"change_median\":%.10g,\"change_q1\":%.10g,\"change_q3\":%.10g,\"wins\":%d,\"losses\":%d,\"ties\":%d,\"verdict\":\"%s\",\"exact\":{%s},\"box\":%s}\n",
				pr, commit, tree, parent, seed, n, seconds, w, m, P["med"], P["q1"], P["q3"], C["med"], C["q1"], C["q3"],
				win, loss, tie, verdict, ex[w], box >rows
		}
		exit bad
	}' "$root/BENCHMARK.json" "$out/change-$pairs.exact" "$out/values.txt" >"$out/report.txt" || status=$?
(read -r header; echo "$header"; sort) <"$out/report.txt"
traj=$root/BENCH_trajectory.json
{
	if [[ -f $traj ]]; then grep '^{' "$traj" || true; fi
	sort "$out/rows.json"
} | sed 's/,$//' | awk 'BEGIN {print "["} NR > 1 {print prev ","} {prev = $0} END {if (NR) print prev; print "]"}' >"$traj.tmp"
mv "$traj.tmp" "$traj"
echo "appended $(wc -l <"$out/rows.json") rows to BENCH_trajectory.json"
exit "${status:-0}"
