#!/usr/bin/env bash
# Same-host A/B comparison of BASE_REF against the working tree.
#
# Both sides run this working tree's siptperf harness: BASE is checked
# out in a git worktree, its bench/siptperf is replaced by this one, and
# the harness is built against each side's sources. The script then runs
# N pairs of benchmark sets, alternating which side goes first, with
# pair i on seed i for both sides, and prints for every workload and
# end-to-end metric both medians, both quartiles, HEAD's wins and a
# verdict (improved / regressed / unresolved / unchanged; see
# README.md). It needs only git and the Go toolchain.
#
# Usage: bench/siptperf/ab.sh [-n PAIRS] [-w WORKLOAD] [-s SECONDS] BASE_REF
#   -n  pairs to run (default 10)
#   -w  one workload instead of all four
#   -s  timed phase per run (default: the value in BENCHMARK.json)
set -euo pipefail

usage() {
	echo "usage: $0 [-n PAIRS] [-w WORKLOAD] [-s SECONDS] BASE_REF" >&2
	exit 2
}

pairs=10
workload=all
seconds=
while getopts n:w:s: opt; do
	case $opt in
	n) pairs=$OPTARG ;;
	w) workload=$OPTARG ;;
	s) seconds=$OPTARG ;;
	*) usage ;;
	esac
done
shift $((OPTIND - 1))
[ $# -eq 1 ] || usage
base_ref=$1

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
build=$root/.bench_build
ab=$build/ab
if [ -z "$seconds" ]; then
	seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")
fi

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
rm -rf "$ab"
git -C "$root" worktree prune
mkdir -p "$ab/results" "$build/gocache" "$build/gopath" "$build/tmp"

git -C "$root" worktree add --detach "$ab/base" "$base_ref" >&2
trap 'git -C "$root" worktree remove --force "$ab/base"' EXIT
rm -rf "$ab/base/bench/siptperf"
cp -R "$root/bench/siptperf" "$ab/base/bench/siptperf"
cp "$root/BENCHMARK.json" "$ab/base/BENCHMARK.json"
(cd "$ab/base/bench/siptperf" && go build -o "$ab/siptperf-base" .) >&2
(cd "$root/bench/siptperf" && go build -o "$ab/siptperf-head" .) >&2

# run_side SIDE PAIR runs one set from that side's source root, where
# the golden tables it verifies against live.
run_side() {
	local side=$1 i=$2 src=$root
	[ "$side" = base ] && src=$ab/base
	echo "[ab: pair $i/$pairs, $side]" >&2
	if ! (cd "$src" && "$ab/siptperf-$side" -workload "$workload" -seed "$i" -seconds "$seconds" \
		-out "$ab/results/$side-$i.json" -work "$build/work" >"$ab/results/$side-$i.log" 2>&1); then
		echo "[ab: $side pair $i reported failures; see $ab/results/$side-$i.log]" >&2
	fi
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run_side base "$i"
		run_side head "$i"
	else
		run_side head "$i"
		run_side base "$i"
	fi
done

echo "# A/B: BASE $(git -C "$root" rev-parse --short "$base_ref") vs working tree, $pairs pairs, $seconds s per run"
"$ab/siptperf-head" -ab "$ab/results" -benchmark "$root/BENCHMARK.json"
