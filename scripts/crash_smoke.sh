#!/bin/sh
# Crash smoke test: boot siptd with a journal (-journal-dir) and a
# persistent store, SIGKILL it mid-sweep, and restart it over the same
# directories. The revived daemon must replay the journal, resume the
# interrupted sweep from its lane checkpoints (re-running only the
# missing lanes), and serve a report byte-identical to an uninterrupted
# reference run; job IDs must stay dense across the crash. CI runs this
# via `make crash-smoke`; scripts/verify.sh includes it too. Needs curl
# and jq. See DESIGN.md §15 for the durability model under test.
set -eu
cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
daemon="$tmpdir/siptd"
outlog="$tmpdir/siptd.log"

# fig6 over three apps is 3 configs x 3 apps = 9 lanes. The runner
# sweeps at most one app per host CPU at a time and checkpoints an app's
# lanes when its batch ends, so on a host with fewer than three CPUs a
# whole app's batch still runs after the first checkpoint; with more
# CPUs the SIGKILL window is the spread between the apps' batch times.
sweep_body='{"experiment":"fig6","apps":["mcf","libquantum","gcc"],"records":500000}'
total_lanes=9

cleanup() {
    # Belt and braces: kill a daemon that outlived the test.
    if [ -n "${pid:-}" ] && kill -0 "$pid" 2>/dev/null; then
        kill -KILL "$pid" 2>/dev/null || true
    fi
    rm -rf "$tmpdir"
}
trap cleanup EXIT INT TERM

echo '== crash-smoke: build siptd'
go build -o "$daemon" ./cmd/siptd

# start_daemon STOREDIR JNLDIR boots siptd over the given directories
# and parses the ephemeral address from its startup log.
start_daemon() {
    : >"$outlog"
    "$daemon" -addr 127.0.0.1:0 -workers 1 -store-dir "$1" -journal-dir "$2" >"$outlog" &
    pid=$!
    addr=''
    i=0
    while [ $i -lt 100 ]; do
        addr=$(sed -n 's|^siptd: listening on http://||p' "$outlog" | head -n 1)
        [ -n "$addr" ] && break
        if ! kill -0 "$pid" 2>/dev/null; then
            echo 'crash-smoke: daemon died before listening' >&2
            cat "$outlog" >&2
            exit 1
        fi
        sleep 0.1
        i=$((i + 1))
    done
    if [ -z "$addr" ]; then
        echo 'crash-smoke: no listen line within 10s' >&2
        cat "$outlog" >&2
        exit 1
    fi
}

stop_daemon() {
    kill -TERM "$pid"
    if ! wait "$pid"; then
        echo 'crash-smoke: daemon exited non-zero on SIGTERM' >&2
        cat "$outlog" >&2
        exit 1
    fi
}

# wait_done ID polls a job to completion and prints its view with the
# (timing-dependent) elapsed_ms stripped, so runs are diffable.
wait_done() {
    i=0
    while [ $i -lt 1200 ]; do
        view=$(curl -fsS "http://$addr/v1/jobs/$1")
        case $(printf '%s' "$view" | jq -r .status) in
        done)
            printf '%s' "$view" | jq 'del(.elapsed_ms)'
            return 0
            ;;
        failed | canceled)
            echo "crash-smoke: job $1 failed: $view" >&2
            exit 1
            ;;
        esac
        sleep 0.1
        i=$((i + 1))
    done
    echo "crash-smoke: job $1 did not finish within 120s" >&2
    exit 1
}

# metric prints one counter/gauge value from the Prometheus text dump.
metric() {
    curl -fsS "http://$addr/metrics" | awk -v n="$1" '$1 == n { print $2 }'
}

echo '== crash-smoke: reference run (no crash)'
start_daemon "$tmpdir/ref-store" "$tmpdir/ref-jnl"
id=$(curl -fsS -X POST "http://$addr/v1/sweep" -d "$sweep_body" | jq -r .id)
wait_done "$id" >"$tmpdir/ref.json"
stop_daemon

# victim_run N boots a fresh daemon over N's own directories, SIGKILLs
# it mid-sweep, restarts it over the same directories and waits for the
# replayed job-1 into $tmpdir/resumed.json. The daemon stays up.
victim_run() {
    echo "== crash-smoke: victim run $1, SIGKILL mid-sweep"
    start_daemon "$tmpdir/store-$1" "$tmpdir/jnl-$1"
    id=$(curl -fsS -X POST "http://$addr/v1/sweep" -d "$sweep_body" | jq -r .id)
    if [ "$id" != job-1 ]; then
        echo "crash-smoke: first admission got id $id, want job-1" >&2
        exit 1
    fi
    # Wait for the first lane checkpoint while the sweep is still
    # running, then pull the plug. The store holds lane results only,
    # and an app's three lanes land together when its batch ends, so at
    # the first put the other two apps' batches are still to finish.
    killed=''
    i=0
    while [ $i -lt 1200 ]; do
        puts=$(metric store_puts_total)
        status=$(curl -fsS "http://$addr/v1/jobs/$id" | jq -r .status)
        if [ "$status" = done ]; then
            echo 'crash-smoke: sweep finished before the kill window; raise records in sweep_body' >&2
            exit 1
        fi
        if [ "${puts:-0}" -ge 1 ]; then
            kill -KILL "$pid"
            wait "$pid" 2>/dev/null || true
            killed=yes
            break
        fi
        sleep 0.05
        i=$((i + 1))
    done
    if [ -z "$killed" ]; then
        echo 'crash-smoke: no lane checkpoint observed within 60s' >&2
        cat "$outlog" >&2
        exit 1
    fi
    echo "== crash-smoke: killed -9 after $puts store puts (>= 1 lane checkpointed)"

    echo '== crash-smoke: restart over the same journal and store'
    start_daemon "$tmpdir/store-$1" "$tmpdir/jnl-$1"
    wait_done job-1 >"$tmpdir/resumed.json"
}

# The sweep can still settle between the status poll and the SIGKILL.
# The journal then replays job-1 as settled: nothing resumes and
# nothing simulates. That run cannot test resumption, so it is rerun
# over fresh directories, at most max_reruns times; the checks below
# hold every run to the same bar.
max_reruns=3
run=1
while :; do
    victim_run $run

    echo '== crash-smoke: resumed report must be byte-identical to the reference'
    if ! diff -u "$tmpdir/ref.json" "$tmpdir/resumed.json"; then
        echo 'crash-smoke: resumed response differs from the reference' >&2
        exit 1
    fi

    echo '== crash-smoke: replay accounting'
    replayed=$(metric serve_journal_replayed_total)
    resumed=$(metric serve_sweeps_resumed_total)
    sims=$(metric serve_simulations_total)
    if [ "${replayed:-0}" != 1 ]; then
        echo "crash-smoke: serve_journal_replayed_total=${replayed:-?}, want 1" >&2
        exit 1
    fi
    if [ "${resumed:-}" = 0 ] && [ "${sims:-}" = 0 ] && [ $run -le $max_reruns ]; then
        echo "crash-smoke: missed the kill window (job-1 settled before the SIGKILL); rerunning the victim phase"
        stop_daemon
        run=$((run + 1))
        continue
    fi
    break
done
if [ "${resumed:-0}" != 1 ]; then
    echo "crash-smoke: serve_sweeps_resumed_total=${resumed:-?}, want 1" >&2
    exit 1
fi
# Checkpointed lanes must not be re-simulated: the resume simulates
# strictly fewer lanes than a from-scratch sweep (the Go chaos gate in
# cmd/siptd pins the exact per-lane accounting).
if [ "${sims:-$total_lanes}" -ge "$total_lanes" ]; then
    echo "crash-smoke: serve_simulations_total=${sims:-?} after resume, want < $total_lanes" >&2
    exit 1
fi

echo '== crash-smoke: job IDs stay dense across the crash'
id=$(curl -fsS -X POST "http://$addr/v1/run" -d '{"app":"mcf","records":2000}' | jq -r .id)
if [ "$id" != job-2 ]; then
    echo "crash-smoke: post-recovery admission got id $id, want job-2" >&2
    exit 1
fi
wait_done job-2 >/dev/null

stop_daemon
echo 'crash-smoke: OK'
