#!/bin/sh
# Repository verification gate: gofmt, build, vet (this module and
# bench/siptperf), siptlint, full test suite, the race detector over all
# packages, and (when installed) govulncheck.
# CI and `make verify` both run exactly this script.
set -eu
cd "$(dirname "$0")/.."

echo '== gofmt -l .'
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "verify: files not gofmt-clean:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo '== go build ./...'
go build ./...
echo '== go vet ./...'
go vet ./...
# bench/siptperf is its own module importing sipt/internal/..., so the
# root ./... never compiles it: an API change that breaks the benchmark
# would otherwise pass every step above.
echo '== go build + vet bench/siptperf'
(cd bench/siptperf && go build -o /dev/null ./... && go vet ./...)
echo '== siptlint ./...'
# The lint phase has a wall-clock budget: the analyzers are meant to be
# cheap enough to run on every verify, and a blown budget means an
# analyzer (or the loader) regressed.
lint_start=$(date +%s)
go run ./cmd/siptlint -timing ./...
lint_elapsed=$(( $(date +%s) - lint_start ))
echo "== siptlint took ${lint_elapsed}s (budget 90s)"
if [ "$lint_elapsed" -gt 90 ]; then
    echo "verify: siptlint exceeded its 90s budget (${lint_elapsed}s)" >&2
    exit 1
fi
echo '== go test ./...'
go test ./...
echo '== go test -race ./...'
go test -race ./...
echo '== chaos suite (fault injection under race)'
# The Makefile's chaos target holds the suite's one test list.
make chaos
echo '== serve smoke (siptd end to end)'
scripts/serve_smoke.sh
echo '== fabric smoke (coordinator vs single node)'
scripts/fabric_smoke.sh
echo '== store smoke (persistence across restart)'
scripts/store_smoke.sh
echo '== crash smoke (kill -9 recovery from the journal)'
scripts/crash_smoke.sh
if command -v govulncheck >/dev/null 2>&1; then
    echo '== govulncheck ./...'
    govulncheck ./...
else
    echo '== govulncheck: not installed, skipping'
fi
echo 'verify: OK'
