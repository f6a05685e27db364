// Command siptbench regenerates every table and figure of the paper's
// evaluation from the simulator.
//
// Usage:
//
//	siptbench [flags] [experiment ...]
//
// With no arguments it runs every experiment in paper order. Experiment
// ids (`siptbench -list` prints them with their titles and is the
// authority): tab1 fig1 tab2 fig2 fig3 fig5 fig6 fig7 fig9 fig12 fig13
// fig14 tab3 fig15 fig16 fig17 fig18, the ablations abl-pred abl-idb
// abl-slow abl-way, and the extensions ext-replay ext-coloring
// ext-icache.
//
// Flags:
//
//	-records N     per-app trace length (default 300000)
//	-seed N        deterministic seed (default 1)
//	-apps list     comma-separated app subset (default: the 26 figure apps)
//	-workers N     concurrent simulations (default 0 = GOMAXPROCS)
//	-timeout D     abort the whole run after duration D (default 0 = no limit)
//	-csv           emit CSV instead of aligned text
//	-markdown      emit Markdown tables instead of aligned text
//	-list          list experiment ids and exit
//	-cpuprofile P  write a CPU profile to P (view with go tool pprof)
//	-memprofile P  write an end-of-run heap profile to P
//
// Performance is measured by the bench/siptperf harness, not here.
//
// Exit codes: 0 success, 1 failure, 2 bad flags or unknown experiment,
// 3 the -timeout deadline expired before the run finished.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"sipt/internal/exp"
)

// exitDeadline is the exit code for a run cut off by -timeout: distinct
// from ordinary failure (1) so scripts can tell "the experiment is
// wrong" from "the experiment is slow".
const exitDeadline = 3

// main delegates to run so deferred profile writers fire before exit.
func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// startCPUProfile begins CPU profiling into path and returns a stop
// function, or nil on failure (already reported).
func startCPUProfile(path string) func() {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "siptbench: cpuprofile: %v\n", err)
		return nil
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "siptbench: cpuprofile: %v\n", err)
		f.Close()
		return nil
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

// writeMemProfile records an end-of-run heap profile after forcing a
// collection, so the snapshot reflects live retention (the trace pool,
// memo cache) rather than transient garbage.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "siptbench: memprofile: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "siptbench: memprofile: %v\n", err)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("siptbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	records := fs.Uint64("records", exp.DefaultRecords, "per-app trace length")
	seed := fs.Int64("seed", 1, "deterministic seed")
	apps := fs.String("apps", "", "comma-separated app subset")
	csv := fs.Bool("csv", false, "emit CSV")
	markdown := fs.Bool("markdown", false, "emit Markdown tables")
	list := fs.Bool("list", false, "list experiments and exit")
	workers := fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write an end-of-run heap profile to this path")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuProfile != "" {
		if stop := startCPUProfile(*cpuProfile); stop != nil {
			defer stop()
		}
	}
	if *memProfile != "" {
		defer writeMemProfile(*memProfile)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Fprintf(stdout, "%-6s %s\n", e.ID, e.Title)
		}
		return 0
	}

	opts := exp.Options{Records: *records, Seed: *seed, Workers: *workers}
	if *apps != "" {
		opts.Apps = strings.Split(*apps, ",")
	}
	runner := exp.NewRunner(opts).WithContext(ctx)

	ids := fs.Args()
	if len(ids) == 0 {
		for _, e := range exp.All() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		e, err := exp.Lookup(id)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		start := time.Now()
		tables, err := e.Run(runner)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(stderr, "siptbench: %s: deadline exceeded (-timeout elapsed before the run finished)\n", id)
				return exitDeadline
			}
			fmt.Fprintf(stderr, "siptbench: %s: %v\n", id, err)
			return 1
		}
		for _, t := range tables {
			var rerr error
			switch {
			case *csv:
				rerr = t.RenderCSV(stdout)
			case *markdown:
				rerr = t.RenderMarkdown(stdout)
			default:
				rerr = t.Render(stdout)
			}
			if rerr != nil {
				fmt.Fprintf(stderr, "siptbench: rendering %s: %v\n", id, rerr)
				return 1
			}
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
