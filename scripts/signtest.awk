# A paired sign test for the ungated metrics of scripts/benchmark-ab.sh:
#   awk -f scripts/signtest.awk .bench_build/ab/ungated.txt
# Each input line is "SIDE PAIR WORKLOAD METRIC VALUE", SIDE parent or change.
# Per workload and metric it takes each pair's difference d = change - parent
# and prints the change's wins and losses (a win is a higher ops_per_s or a
# lower lat_p50_us; ties are dropped), the two-sided binomial p-value of that
# split when neither side is better, the median d, and a distribution-free
# interval for the median d: the order statistics d(k) and d(n+1-k) of the n
# pairs, with the largest k whose coverage 1 - 2 P(B(n, 1/2) < k) is at least
# 95 % (for 10 pairs, d(2) to d(9), 97.9 %). Reported, not gated: it writes
# no verdict and no trajectory row.
BEGIN { lower["lat_p50_us"] = 1 } # the metrics a lower value improves
{ v[$1, $3, $4, $2] = $5; keys[$3 " " $4] = 1; if ($2 > pairs) pairs = $2 }

# cdf is P(B(n, 1/2) <= k).
function cdf(n, k,   i, term, s) {
	term = 0.5 ^ n
	for (i = 0; i <= k; i++) { s += term; term *= (n - i) / (i + 1) }
	return s
}

END {
	print "sign test, reported, not gated (d = change - parent; a win is the change better)"
	printf "%-14s %-12s %5s %7s %8s %12s  %s\n", "workload", "metric", "pairs", "w/l", "p", "median d", "interval for the median d"
	fflush()
	for (key in keys) {
		split(key, wm, " ")
		n = win = loss = 0
		for (i = 1; i <= pairs; i++) {
			if (!(("parent", wm[1], wm[2], i) in v) || !(("change", wm[1], wm[2], i) in v)) continue
			x = v["change", wm[1], wm[2], i] - v["parent", wm[1], wm[2], i]
			d[++n] = x
			if (wm[2] in lower) x = -x
			if (x > 0) win++; else if (x < 0) loss++
		}
		if (n == 0) continue
		for (i = 2; i <= n; i++) for (j = i; j > 1 && d[j-1] > d[j]; j--) { t = d[j]; d[j] = d[j-1]; d[j-1] = t }
		p = win + loss ? 2 * cdf(win + loss, win < loss ? win : loss) : 1
		if (p > 1) p = 1
		med = n % 2 ? d[(n+1)/2] : (d[n/2] + d[n/2+1]) / 2
		for (k = 1; 2 * k + 2 <= n + 1 && 1 - 2 * cdf(n, k) >= 0.95; k++) ;
		printf "%-14s %-12s %5d %7s %8.4f %12.3f  [%.3f, %.3f] %.1f%%\n", wm[1], wm[2], n, win "/" loss,
			p, med, d[k], d[n+1-k], 100 * (1 - 2 * cdf(n, k - 1)) | "sort"
	}
	close("sort")
}
