// Command siptd serves the SIPT simulator over HTTP: single runs,
// experiment sweeps, job status/cancellation, health, and metrics. See
// internal/serve for the API and DESIGN.md §8 for the architecture.
//
// Usage:
//
//	siptd [-addr :8080] [-workers N] [-queue N] [-records N] [-seed N]
//	      [-cache N] [-maxjobs N] [-trace-pool-mb N]
//	      [-store-dir DIR] [-store-mb N] [-trace-store-mb N] [-max-trace-mb N]
//	      [-journal-dir DIR] [-journal-mb N]
//	      [-coordinator host1:8080,host2:8080] [-shard-timeout D]
//	      [-faults spec] [-fault-seed N] [-ready-timeout D]
//
// -store-dir enables the content-addressed persistent store
// (internal/store): simulation results are written under DIR/results
// and survive restarts — a warmed daemon serves previously computed
// figures byte-identically without re-simulating. Synthetic traces are
// regenerated on a result miss, never stored. It also enables trace
// ingestion (POST /v1/traces, stored under DIR/traces) and
// replay-by-digest runs.
//
// -journal-dir enables crash-safe serving (DESIGN.md §15): every
// admission is journaled before the 202, sweep progress is checkpointed
// per lane, and a restarted daemon replays the journal — finished jobs
// are served from the store, interrupted sweeps resume re-running only
// missing lanes. Requires -store-dir. An unwritable directory or an
// incompatible journal version is a startup error naming the path.
//
// -faults arms the deterministic fault-injection framework (see
// internal/fault) from a spec like "sched.worker.panic:1/64"; it
// defaults to the SIPT_FAULTS environment variable and is meant for
// chaos drills and staging, never steady-state production.
//
// -coordinator turns the daemon into a sweep-fabric coordinator over
// the listed worker daemons (DESIGN.md §11): sweeps partition into
// trace-affine shards dispatched over the workers' /v1/shard API, and
// the merged report is bit-identical to a single-node run. A
// coordinator refuses shard work itself (403 on POST /v1/shard).
//
// On startup it prints one line, "siptd: listening on http://ADDR",
// which scripts/serve_smoke.sh parses to find the ephemeral port. On
// SIGTERM/SIGINT it stops admitting work, finishes every accepted job
// (cancelled jobs stop at their next context poll), and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"sipt/internal/exp"
	"sipt/internal/fabric"
	"sipt/internal/fault"
	"sipt/internal/journal"
	"sipt/internal/metrics"
	"sipt/internal/serve"
	"sipt/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "siptd:", err)
		os.Exit(1)
	}
}

// run is the daemon body, factored for tests: it listens, serves until
// ctx is cancelled (the signal path), then drains and shuts down.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("siptd", flag.ContinueOnError)
	fs.SetOutput(stdout)
	addr := fs.String("addr", ":8080", "listen address (host:0 picks an ephemeral port)")
	workers := fs.Int("workers", 0, "concurrent simulation workers (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "waiting-job bound per priority class")
	records := fs.Uint64("records", 0, "default trace length per run (0 = harness default)")
	seed := fs.Int64("seed", 1, "default simulation seed")
	cacheEntries := fs.Int("cache", 0, "result cache capacity in entries (0 = default)")
	maxJobs := fs.Int("maxjobs", 0, "retained job records (0 = default)")
	tracePoolMB := fs.Int("trace-pool-mb", 0, "materialised trace pool budget in MiB (0 = default)")
	storeDir := fs.String("store-dir", "", "persistent store directory; empty disables persistence and trace ingestion")
	journalDir := fs.String("journal-dir", "", "write-ahead job journal directory; empty disables crash-safe serving (requires -store-dir)")
	journalMB := fs.Int("journal-mb", 0, "journal segment rotation threshold in MiB (0 = default 4)")
	storeMB := fs.Int("store-mb", 0, "result store byte budget in MiB (0 = default 512)")
	traceStoreMB := fs.Int("trace-store-mb", 0, "ingested trace store byte budget in MiB (0 = default 512)")
	maxTraceMB := fs.Int("max-trace-mb", 0, "POST /v1/traces upload size cap in MiB (0 = default 64)")
	faults := fs.String("faults", os.Getenv(fault.EnvSpec),
		"fault-injection spec, e.g. sched.worker.panic:1/64 (default $"+fault.EnvSpec+")")
	faultSeed := fs.Int64("fault-seed", 1, "seed for fault-injection decisions")
	readyTimeout := fs.Duration("ready-timeout", 0, "/readyz worker heartbeat deadline (0 = default 2s)")
	coordinator := fs.String("coordinator", "",
		"comma-separated worker base URLs; non-empty turns this daemon into a sweep-fabric coordinator")
	shardTimeout := fs.Duration("shard-timeout", 0, "coordinator per-shard dispatch deadline (0 = default 5m)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *faults != "" {
		spec, err := fault.ParseSpec(*faults)
		if err != nil {
			return err
		}
		if err := fault.Arm(spec, *faultSeed); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "siptd: faults armed: %s (seed %d)\n", spec, *faultSeed)
	}

	// One registry serves both the HTTP layer's metrics and, in
	// coordinator mode, the fabric_* series.
	reg := metrics.NewRegistry()
	var remote exp.Remote
	if *coordinator != "" {
		fleet, err := workerURLs(*coordinator)
		if err != nil {
			return err
		}
		remote = fabric.NewCoordinator(fabric.Config{
			Workers:      fleet,
			Registry:     reg,
			ShardTimeout: *shardTimeout,
		})
		fmt.Fprintf(stdout, "siptd: coordinator over %d workers\n", len(fleet))
	}

	var resultStore, traceStore *store.Store
	if *storeDir != "" {
		var err error
		resultStore, err = store.Open(filepath.Join(*storeDir, "results"), int64(*storeMB)<<20)
		if err != nil {
			return fmt.Errorf("opening result store: %w", err)
		}
		traceStore, err = store.Open(filepath.Join(*storeDir, "traces"), int64(*traceStoreMB)<<20)
		if err != nil {
			return fmt.Errorf("opening trace store: %w", err)
		}
		fmt.Fprintf(stdout, "siptd: persistent store at %s\n", *storeDir)
	}

	var jnl *journal.Journal
	if *journalDir != "" {
		if *storeDir == "" {
			return fmt.Errorf("-journal-dir %s requires -store-dir (checkpoints and results live in the store)", *journalDir)
		}
		var err error
		jnl, err = journal.Open(*journalDir, int64(*journalMB)<<20)
		if err != nil {
			return fmt.Errorf("opening journal %s: %w", *journalDir, err)
		}
		defer jnl.Close()
		fmt.Fprintf(stdout, "siptd: job journal at %s\n", *journalDir)
	}

	runner := exp.NewRunner(exp.Options{
		Records:      *records,
		Seed:         *seed,
		CacheEntries: *cacheEntries,
		TracePoolMB:  *tracePoolMB,
		Remote:       remote,
		Store:        resultStore,
	})
	srv := serve.New(serve.Config{
		Runner:        runner,
		Workers:       *workers,
		QueueDepth:    *queue,
		MaxJobs:       *maxJobs,
		Registry:      reg,
		ReadyTimeout:  *readyTimeout,
		DisableShards: *coordinator != "",
		TraceStore:    traceStore,
		MaxTraceBytes: int64(*maxTraceMB) << 20,
		Journal:       jnl,
		ResultStore:   resultStore,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "siptd: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful exit: stop admission and finish every accepted job,
	// then close the listener and in-flight HTTP exchanges.
	fmt.Fprintln(stdout, "siptd: draining")
	srv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return err
	}
	// The drain let every accepted job finish; Close releases the
	// server lifecycle context behind them.
	srv.Close()
	fmt.Fprintln(stdout, "siptd: drained, exiting")
	return nil
}

// workerURLs parses the -coordinator flag: comma-separated base URLs,
// each normalised to an http:// scheme with no trailing slash.
func workerURLs(spec string) ([]string, error) {
	var urls []string
	for _, w := range strings.Split(spec, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		if !strings.Contains(w, "://") {
			w = "http://" + w
		}
		urls = append(urls, strings.TrimRight(w, "/"))
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("-coordinator: no worker URLs in %q", spec)
	}
	return urls, nil
}
