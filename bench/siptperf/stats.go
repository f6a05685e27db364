package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported number. N, Q1 and Q3 describe the samples
// behind Value when it summarises a distribution; N is zero for a
// single measurement. P names the percentile a tail metric reports.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	P     float64 `json:"p,omitempty"`
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted interpolates linearly between the closest ranks of the
// sorted sample s; an empty sample reads 0 so no NaN reaches the JSON.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// quantile is quantileSorted over an unsorted sample.
func quantile(xs []float64, q float64) float64 { return quantileSorted(sortedCopy(xs), q) }

// distribution summarises a sample as its median with quartiles.
func distribution(xs []float64, unit string) metric {
	s := sortedCopy(xs)
	return metric{
		Value: quantileSorted(s, 0.5),
		Unit:  unit,
		N:     len(s),
		Q1:    quantileSorted(s, 0.25),
		Q3:    quantileSorted(s, 0.75),
	}
}

// tail reports the highest percentile that still has at least ten
// samples beyond it (1 - 10/n), clamped to [p90, p99]. Below 100
// samples p90 has fewer than ten beyond it; it is kept anyway, so the
// metric does not jump when the sample count crosses a threshold.
func tail(xs []float64, unit string) metric {
	q := 0.9
	if n := float64(len(xs)); n > 0 {
		q = min(max(1-10/n, 0.9), 0.99)
	}
	m := distribution(xs, unit)
	m.Value = quantile(xs, q)
	m.P = q
	return m
}

// ratio divides, reading an empty denominator as 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// hostInfo fingerprints the machine a result was measured on: results
// are comparable only with results from the same fingerprint.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OSArch     string `json:"os_arch"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
	if v, err := procField("/proc/cpuinfo", "model name"); err == nil {
		h.CPUModel = v
	}
	return h
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	v, err := procField("/proc/self/status", "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

// procField returns the first "key: value" line's value from a /proc
// text file.
func procField(path, key string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no %q line", path, key)
}
