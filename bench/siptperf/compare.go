package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// bench is the part of BENCHMARK.json the A/B verdict needs.
type bench struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBench(path string) (*bench, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bm bench
	if err := json.Unmarshal(b, &bm); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bm, nil
}

// readSide loads DIR/<side>-N.json for N = 1.. until one is missing.
// Each file is one -out result: a list for -workload all, a single
// object for one workload.
func readSide(dir, side string) ([][]*result, error) {
	var runs [][]*result
	for n := 1; ; n++ {
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s-%d.json", side, n)))
		if os.IsNotExist(err) {
			return runs, nil
		}
		if err != nil {
			return nil, err
		}
		var rs []*result
		if err := json.Unmarshal(b, &rs); err != nil {
			var r result
			if err := json.Unmarshal(b, &r); err != nil {
				return nil, fmt.Errorf("%s-%d.json: %w", side, n, err)
			}
			rs = []*result{&r}
		}
		runs = append(runs, rs)
	}
}

// values collects one metric of one workload across runs.
func values(runs [][]*result, workload, name string) []float64 {
	var out []float64
	for _, rs := range runs {
		for _, r := range rs {
			if r.Workload == workload {
				out = append(out, r.EndToEnd[name].Value)
			}
		}
	}
	return out
}

// verdict applies the same-host A/B rule to paired runs of one metric:
//   - improved: HEAD wins at least 9 of 10 pairs and the medians differ
//     by more than BASE's interquartile range;
//   - regressed: HEAD's median is worse than BASE's by more than bound;
//   - unresolved: either side's spread (IQR over median) exceeds the
//     bound, unless every HEAD run beats every BASE run;
//   - unchanged: otherwise.
func verdict(base, head []float64, higher bool, bound float64) (string, int) {
	better := func(a, b float64) bool {
		if higher {
			return a > b
		}
		return a < b
	}
	wins := 0
	for i := range base {
		if better(head[i], base[i]) {
			wins++
		}
	}
	mb, mh := quantile(base, 0.5), quantile(head, 0.5)
	iqrB := quantile(base, 0.75) - quantile(base, 0.25)
	iqrH := quantile(head, 0.75) - quantile(head, 0.25)
	worse := ratio(mh-mb, mb)
	if higher {
		worse = -worse
	}
	spread := max(ratio(iqrB, mb), ratio(iqrH, mh))
	// Every HEAD run beats every BASE run: HEAD's worst beats BASE's best.
	allBetter := better(slices.Max(head), slices.Min(base))
	if higher {
		allBetter = better(slices.Min(head), slices.Max(base))
	}
	switch {
	case wins*10 >= 9*len(base) && better(mh, mb) && math.Abs(mh-mb) > iqrB:
		return "improved", wins
	case worse > bound:
		return "regressed", wins
	case spread > bound && !allBetter:
		return "unresolved", wins
	}
	return "unchanged", wins
}

// abReport prints, per workload and end-to-end metric, both sides'
// medians and quartiles, HEAD's wins and the verdict.
func abReport(w io.Writer, dir, benchPath string) error {
	bm, err := readBench(benchPath)
	if err != nil {
		return err
	}
	base, err := readSide(dir, "base")
	if err != nil {
		return err
	}
	head, err := readSide(dir, "head")
	if err != nil {
		return err
	}
	if len(base) == 0 || len(base) != len(head) {
		return fmt.Errorf("%s: %d base and %d head runs; need equal, non-zero counts", dir, len(base), len(head))
	}
	fmt.Fprintf(w, "%-13s %-12s %12s %12s %12s %12s %12s %12s %6s %-10s\n", "workload", "metric",
		"base_p50", "base_q1", "base_q3", "head_p50", "head_q1", "head_q3", "wins", "verdict")
	for _, wl := range workloads {
		if len(values(base, wl.name, "setup_s")) == 0 {
			continue // not in this comparison (ab.sh -w)
		}
		for _, m := range bm.EndToEnd {
			b, h := values(base, wl.name, m.Name), values(head, wl.name, m.Name)
			if len(b) != len(base) || len(h) != len(head) {
				return fmt.Errorf("%s %s: missing from some runs", wl.name, m.Name)
			}
			v, wins := verdict(b, h, m.Better == "higher", m.Bound)
			fmt.Fprintf(w, "%-13s %-12s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %3d/%-2d %-10s\n",
				wl.name, m.Name, quantile(b, 0.5), quantile(b, 0.25), quantile(b, 0.75),
				quantile(h, 0.5), quantile(h, 0.25), quantile(h, 0.75), wins, len(b), v)
		}
	}
	return nil
}
