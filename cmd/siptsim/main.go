// Command siptsim runs a single workload on a single simulated system
// and prints the full statistics: IPC, SIPT outcome breakdown,
// hit rates, predictor accuracy, TLB behaviour, and the energy split.
//
// Usage:
//
//	siptsim -app mcf -l1 32K2w -mode combined [-core ooo] [-scenario normal]
//	siptsim -trace mcf.sipt -l1 32K2w -mode combined
//
// -trace replays a .sipt file (tracegen -o) under the scenario its
// header records.
//
// Exit codes: 0 success, 1 simulation or input failure, 2 bad flags,
// 3 the -timeout deadline expired before the run finished.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/energy"
	"sipt/internal/sim"
	"sipt/internal/trace"
	"sipt/internal/tracefile"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// exitDeadline is the exit code for a run cut off by -timeout: distinct
// from ordinary failure (1) so scripts can tell "the simulation is
// wrong" from "the simulation is slow".
const exitDeadline = 3

// simContext returns the context a run executes under: Background for
// timeout 0, a deadline-bound context otherwise. The cancel func must
// be called (or deferred) by the caller.
func simContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), timeout)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// simFail reports a simulation error: exitDeadline with a clear
// "deadline exceeded" line when the -timeout budget ran out, 1
// otherwise.
func simFail(stderr io.Writer, err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(stderr, "siptsim: deadline exceeded (-timeout elapsed before the run finished)")
		return exitDeadline
	}
	fmt.Fprintln(stderr, "siptsim:", err)
	return 1
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// run is the command body, factored for tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("siptsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "h264ref", "workload name (see -listapps)")
	l1 := fs.String("l1", "32K8w", "L1 geometry, e.g. 32K2w")
	mode := fs.String("mode", "vipt", "indexing mode: vipt|ideal|naive|bypass|combined")
	coreKind := fs.String("core", "ooo", "core model: ooo|inorder")
	scenario := fs.String("scenario", "normal", "memory condition: normal|fragmented|thp-off|no-contig")
	wayPred := fs.Bool("waypred", false, "enable MRU way prediction")
	records := fs.Uint64("records", sim.DefaultRecords, "trace length (memory accesses)")
	seed := fs.Int64("seed", 1, "deterministic seed")
	traceFile := fs.String("trace", "", "replay a .sipt trace file (its header sets the scenario) instead of generating")
	timeout := fs.Duration("timeout", 0, "abort the simulation after this duration (0 = no limit)")
	listApps := fs.Bool("listapps", false, "list workload names and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "siptsim:", err)
		return 1
	}

	if *listApps {
		for _, name := range workload.AllApps() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}

	sizeKiB, ways, err := sim.ParseGeometry(*l1)
	if err != nil {
		return fail(err)
	}
	m, err := core.ParseMode(*mode)
	if err != nil {
		return fail(err)
	}
	sc, err := vm.ParseScenario(*scenario)
	if err != nil {
		return fail(err)
	}
	var coreCfg cpu.Config
	switch strings.ToLower(*coreKind) {
	case "ooo":
		coreCfg = cpu.OOO()
	case "inorder":
		coreCfg = cpu.InOrder()
	default:
		return fail(fmt.Errorf("bad core %q (ooo|inorder)", *coreKind))
	}

	label := *app
	var tr *tracefile.Reader
	if *traceFile != "" {
		label = *traceFile
		f, err := os.Open(*traceFile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if tr, err = tracefile.NewReader(f); err != nil {
			return fail(fmt.Errorf("%s: %w", *traceFile, err))
		}
		// The trace was laid out under its own scenario: take it from
		// the header, and refuse an explicit -scenario that disagrees.
		if hdr := tr.Meta().Scenario; hdr != sc {
			if flagSet(fs, "scenario") {
				return fail(fmt.Errorf("-scenario %s disagrees with the trace's scenario %s", sc, hdr))
			}
			sc = hdr
		}
	}

	cfg := sim.SIPT(coreCfg, sizeKiB, ways, m)
	cfg.WayPrediction = *wayPred
	cfg.NoContig = sc == vm.ScenarioNoContig

	ctx, cancel := simContext(*timeout)
	defer cancel()

	var st sim.Stats
	if tr != nil {
		st, err = sim.RunTrace(ctx, *traceFile, trace.Limit(tr, *records), cfg, *seed)
	} else {
		var prof workload.Profile
		if prof, err = workload.Lookup(*app); err != nil {
			return fail(err)
		}
		st, err = sim.RunApp(ctx, prof, cfg, sc, *seed, *records)
	}
	if err != nil {
		return simFail(stderr, err)
	}

	fmt.Fprintf(stdout, "workload      %s (%s, %s, %s)\n", label, cfg.Label(), coreCfg.Name, sc)
	fmt.Fprintf(stdout, "instructions  %d\n", st.Core.Instructions)
	fmt.Fprintf(stdout, "cycles        %d\n", st.Core.Cycles)
	fmt.Fprintf(stdout, "IPC           %.4f\n", st.IPC())
	fmt.Fprintf(stdout, "loads/stores  %d / %d\n", st.Core.Loads, st.Core.Stores)
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "L1 accesses   %d (hit rate %.4f)\n", st.L1.Accesses, st.L1C.HitRate())
	fmt.Fprintf(stdout, "  fast        %d (%.4f)\n", st.L1.Fast, st.L1.FastFraction())
	fmt.Fprintf(stdout, "  slow        %d (extra accesses %.4f/access)\n", st.L1.Slow, st.L1.ExtraAccessRate())
	fmt.Fprintf(stdout, "  bypassed    %d\n", st.L1.Bypassed)
	fmt.Fprintf(stdout, "  fast-spec   %d, fast-idb %d\n", st.L1.FastSpec, st.L1.FastIDB)
	if st.Bypass.Predictions > 0 {
		fmt.Fprintf(stdout, "bypass pred   accuracy %.4f (spec %d, bypass %d, oppLoss %d, extra %d)\n",
			st.Bypass.Accuracy(), st.Bypass.CorrectSpeculate, st.Bypass.CorrectBypass,
			st.Bypass.OpportunityLoss, st.Bypass.ExtraAccess)
	}
	if st.IDB.Lookups > 0 {
		fmt.Fprintf(stdout, "IDB           hit rate %.4f over %d lookups\n", st.IDB.HitRate(), st.IDB.Lookups)
	}
	if st.L1.WayProbes > 0 {
		fmt.Fprintf(stdout, "way pred      accuracy %.4f\n", st.L1.WayAccuracy())
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "L2            accesses %d, hit rate %.4f\n", st.L2.Accesses, st.L2.HitRate())
	fmt.Fprintf(stdout, "TLB           L1 hits %d, L2 hits %d, walks %d\n", st.TLB.L1Hits, st.TLB.L2Hits, st.TLB.Walks)
	fmt.Fprintln(stdout)
	b := st.Energy
	fmt.Fprintf(stdout, "energy        total %.4g J (dynamic %.4g, static %.4g, predictor %.4g)\n",
		b.Total(), b.Dynamic(), b.Static(), b.PredictorJ)
	for _, l := range []energy.Level{energy.L1, energy.L2, energy.LLC} {
		fmt.Fprintf(stdout, "  %-4s        dyn %.4g J, static %.4g J\n", l, b.DynamicJ[l], b.StaticJ[l])
	}
	return 0
}
