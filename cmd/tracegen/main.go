// Command tracegen materialises a synthetic workload trace to a .sipt
// file, or inspects an existing one. Traces carry PC, VA, PA, page
// flags, instruction gaps, and load-use distances — the same
// information the paper's modified Macsim trace generator captured via
// Linux pagemap/kpageflags.
//
//	tracegen -app gcc -records 1000000 -o gcc.sipt
//	tracegen -inspect gcc.sipt
//
// The file is the internal/tracefile format: a self-describing header
// (app, scenario, seed, record count) plus CRC-protected chunks of
// packed 16-byte records — the format siptd ingests via POST
// /v1/traces and siptsim -trace replays.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"sipt/internal/memaddr"
	"sipt/internal/sim"
	"sipt/internal/trace"
	"sipt/internal/tracefile"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// run is the command body, factored for tests: every failure — bad
// flags, unknown workloads, unwritable output paths — returns an error
// (main exits 1) instead of panicking or half-writing.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stdout)
	app := fs.String("app", "", "workload name to generate")
	outFile := fs.String("o", "", "output .sipt trace file")
	records := fs.Uint64("records", 1_000_000, "memory accesses to emit")
	seed := fs.Int64("seed", 1, "deterministic seed")
	scenario := fs.String("scenario", "normal", "memory condition")
	inspect := fs.String("inspect", "", ".sipt trace file to summarise instead of generating")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *inspect != "" {
		return inspectTrace(*inspect, stdout)
	}
	if *app == "" || *outFile == "" {
		return errors.New("need -app and -o (or -inspect FILE)")
	}

	sc, err := vm.ParseScenario(*scenario)
	if err != nil {
		return err
	}
	prof, err := workload.Lookup(*app)
	if err != nil {
		return err
	}
	sys := sim.NewSystem(sc, *seed, prof)
	gen, err := workload.NewGenerator(prof, sys, *seed, *records)
	if err != nil {
		return err
	}

	meta := tracefile.Meta{App: *app, Scenario: sc, Seed: *seed}
	n, err := writeTracefile(*outFile, meta, gen)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d records to %s (tracefile v%d)\n", n, *outFile, tracefile.FormatVersion)
	return nil
}

// writeTracefile streams the generator into a versioned tracefile,
// returning the record count. The file is created first so an
// unwritable path fails before any generation work.
func writeTracefile(path string, meta tracefile.Meta, gen trace.Reader) (n uint64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("creating %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing %s: %w", path, cerr)
		}
	}()
	w, err := tracefile.NewWriter(f, meta)
	if err != nil {
		return 0, err
	}
	var rec trace.Record
	for {
		err := gen.NextInto(&rec)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, err
		}
		if err := w.Append(&rec); err != nil {
			return 0, err
		}
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return w.Count(), nil
}

func inspectTrace(path string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := tracefile.NewReader(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	meta := r.Meta()
	fmt.Fprintf(stdout, "tracefile v%d: app %s, scenario %s, seed %d, %d records\n",
		tracefile.FormatVersion, meta.App, meta.Scenario, meta.Seed, meta.Records)
	var n, loads, stores, huge uint64
	var instr uint64
	var unchanged [4]uint64 // >=1, >=2, >=3 bits, plus total index 0 unused
	pcs := make(map[uint64]struct{})
	var rec trace.Record
	for {
		err := r.NextInto(&rec)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		n++
		instr += rec.Instructions()
		if rec.IsStore() {
			stores++
		} else {
			loads++
		}
		if rec.Huge() {
			huge++
		}
		u := memaddr.UnchangedBits(rec.VA, rec.PA, 3)
		for k := uint(1); k <= u; k++ {
			unchanged[k]++
		}
		pcs[rec.PC] = struct{}{}
	}
	if n == 0 {
		return errors.New("empty trace")
	}
	fmt.Fprintf(stdout, "records        %d (%d instructions)\n", n, instr)
	fmt.Fprintf(stdout, "loads/stores   %d / %d\n", loads, stores)
	fmt.Fprintf(stdout, "distinct PCs   %d\n", len(pcs))
	fmt.Fprintf(stdout, "hugepage       %.4f\n", float64(huge)/float64(n))
	for k := 1; k <= 3; k++ {
		fmt.Fprintf(stdout, "unchanged k=%d  %.4f\n", k, float64(unchanged[k])/float64(n))
	}
	return nil
}
