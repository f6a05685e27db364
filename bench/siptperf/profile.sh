#!/usr/bin/env bash
# Record where one workload's time goes: run it with a CPU profile of
# its timed phase, then write bench/siptperf/profiles/<workload>.txt with
# flat CPU time summed by Go package and the top functions.
#
# Usage: bench/siptperf/profile.sh WORKLOAD [SECONDS]
set -euo pipefail
[ $# -ge 1 ] || { echo "usage: $0 WORKLOAD [SECONDS]" >&2; exit 2; }
workload=$1
seconds=${2:-10}
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
build=$root/.bench_build
prof=$build/$workload.prof
mkdir -p "$build" "$here/profiles"

bash "$here/run.sh" -workload "$workload" -seconds "$seconds" -cpuprofile "$prof" >"$build/$workload.out"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOENV=off

# pprof prints durations with units; sum them in seconds per package,
# where a package is the symbol up to its first '.' after the last '/',
# once method receivers and generic shapes are cut off.
by_package() {
	awk '
	function secs(v) {
		if (v ~ /ms$/) return substr(v, 1, length(v) - 2) / 1e3
		if (v ~ /us$/) return substr(v, 1, length(v) - 2) / 1e6
		if (v ~ /ns$/) return substr(v, 1, length(v) - 2) / 1e9
		if (v ~ /s$/) return substr(v, 1, length(v) - 1) + 0
		return v + 0
	}
	function pkg(sym,   i, j, n, parts, last, k) {
		i = index(sym, "("); j = index(sym, "[")
		if (j > 0 && (i == 0 || j < i)) i = j
		if (i > 0) sym = substr(sym, 1, i - 1)
		n = split(sym, parts, "/")
		last = parts[n]; k = index(last, ".")
		if (k > 0) last = substr(last, 1, k - 1)
		parts[n] = last
		sym = parts[1]
		for (i = 2; i <= n; i++) sym = sym "/" parts[i]
		return sym
	}
	started && NF >= 6 {
		name = $6
		for (i = 7; i <= NF; i++) name = name " " $i
		t = secs($1); sum[pkg(name)] += t; total += t
	}
	/flat%/ { started = 1 }
	END {
		for (p in sum) printf "%10.2fs %6.2f%%  %s\n", sum[p], 100 * sum[p] / total, p
	}' | sort -rn
}

{
	echo "# CPU profile of siptperf -workload $workload, ${seconds} s timed phase"
	grep '^# ' "$build/$workload.out" | head -1
	echo
	echo "## flat CPU time by package"
	go tool pprof -top -nodecount=1000000 -nodefraction=0 "$build/siptperf" "$prof" 2>/dev/null | by_package
	echo
	echo "## top functions"
	go tool pprof -top -nodecount=25 "$build/siptperf" "$prof" 2>/dev/null | sed -n '/flat%/,$p'
} >"$here/profiles/$workload.txt"
echo "wrote $here/profiles/$workload.txt" >&2
