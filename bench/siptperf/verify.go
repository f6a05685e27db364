package main

import (
	"fmt"
	"os"
	"path/filepath"

	"sipt/internal/exp"
	"sipt/internal/report"
	"sipt/internal/sim"
)

// check is one output verification. A failed check counts against the
// run (error_ratio, a non-zero exit) exactly like a failed operation.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func pass(name string) check { return check{Name: name, OK: true} }

func failCheck(name, format string, args ...any) check {
	return check{Name: name, Detail: fmt.Sprintf(format, args...)}
}

// compareOutput checks that a reference computation succeeded and
// rendered exactly what the measured path served.
func compareOutput(name, got, want string, err error) check {
	switch {
	case err != nil:
		return failCheck(name, "reference run: %v", err)
	case got == "":
		return failCheck(name, "no output was recorded to compare")
	case got != want:
		return failCheck(name, "output differs from the reference (%d vs %d bytes)", len(got), len(want))
	}
	return pass(name)
}

// summary renders one run's stats as siptd's run summary table, so a
// served run can be compared with a direct one byte for byte.
func summary(st sim.Stats, note string, err error) (string, error) {
	if err != nil {
		return "", err
	}
	t := &report.Table{Title: "Run summary", Note: note, Columns: []string{"metric", "value"}}
	t.AddRow("IPC", fmt.Sprintf("%.4f", st.IPC()))
	t.AddRow("instructions", fmt.Sprintf("%d", st.Core.Instructions))
	t.AddRow("cycles", fmt.Sprintf("%d", st.Core.Cycles))
	t.AddRow("l1_accesses", fmt.Sprintf("%d", st.L1.Accesses))
	t.AddRow("l1_hit_rate", fmt.Sprintf("%.4f", st.L1C.HitRate()))
	t.AddRow("fast_fraction", fmt.Sprintf("%.4f", st.L1.FastFraction()))
	t.AddRow("extra_access_rate", fmt.Sprintf("%.4f", st.L1.ExtraAccessRate()))
	t.AddRow("energy_j", fmt.Sprintf("%.4g", st.Energy.Total()))
	return renderTables([]*report.Table{t})
}

// goldenOptions are the settings internal/exp's golden tables were
// recorded with.
func goldenOptions() exp.Options {
	return exp.Options{Records: 20_000, Seed: 1, Apps: kernelApps, Workers: 2}
}

// goldenCheck renders Figs. 6/9/13 at the golden options and requires
// them byte-identical to dir/golden_<id>.txt: the speed being measured
// must come from the same simulated results.
func goldenCheck(dir string) check {
	const name = "fig6/fig9/fig13 equal the golden tables"
	r := exp.NewRunner(goldenOptions())
	for _, id := range kernelExps {
		want, err := os.ReadFile(filepath.Join(dir, "golden_"+id+".txt"))
		if err != nil {
			return failCheck(name, "reading golden table: %v", err)
		}
		got, err := runExps(r, []string{id}, nil, 0)
		if c := compareOutput(name, got, string(want), err); !c.OK {
			c.Detail = id + ": " + c.Detail
			return c
		}
	}
	return pass(name)
}
