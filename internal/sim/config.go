// Package sim assembles the full simulated systems of Tab. II — core,
// SIPT L1, TLB, private L2 (OOO three-level hierarchy), shared LLC,
// DRAM, and energy accounting — and runs workloads on them, single-core
// and quad-core.
package sim

import (
	"fmt"
	"strings"

	"sipt/internal/cache"
	"sipt/internal/cacti"
	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/dram"
	"sipt/internal/energy"
	"sipt/internal/tlb"
)

// FreqGHz is the core clock of both simulated cores (Tab. II).
const FreqGHz = 3.0

// Config selects one simulated system: the core model, the L1
// geometry/indexing mode, and the optional way predictor.
type Config struct {
	Core cpu.Config

	L1SizeKiB int
	L1Ways    int
	Mode      core.Mode

	WayPrediction        bool
	PerfectWayPrediction bool

	// NoContig enables the IDB's zero-contiguity sensitivity mode.
	NoContig bool

	// Cores is the number of cores (1 or 4 in the paper). The LLC
	// capacity and static power scale proportionally (Tab. II note).
	Cores int
}

// Baseline returns the paper's baseline system for the given core:
// 32 KiB 8-way 4-cycle VIPT L1.
func Baseline(c cpu.Config) Config {
	return Config{Core: c, L1SizeKiB: 32, L1Ways: 8, Mode: core.ModeVIPT, Cores: 1}
}

// SIPT returns a SIPT system with the given L1 geometry and mode.
func SIPT(c cpu.Config, sizeKiB, ways int, mode core.Mode) Config {
	return Config{Core: c, L1SizeKiB: sizeKiB, L1Ways: ways, Mode: mode, Cores: 1}
}

// ParseGeometry resolves an L1 geometry label like "32K2w"
// (case-insensitive) into {sizeKiB, ways}; the CLI flags and the siptd
// API both accept this form.
func ParseGeometry(s string) (sizeKiB, ways int, err error) {
	var n int
	n, err = fmt.Sscanf(strings.ToUpper(s), "%dK%dW", &sizeKiB, &ways)
	if err != nil || n != 2 {
		return 0, 0, fmt.Errorf("sim: bad L1 geometry %q (want e.g. 32K2w)", s)
	}
	return sizeKiB, ways, nil
}

// SIPTGeometries lists the four SIPT L1 configurations of Tab. II as
// {sizeKiB, ways} pairs, in the paper's order.
func SIPTGeometries() [][2]int {
	return [][2]int{{32, 2}, {32, 4}, {64, 4}, {128, 4}}
}

// Validate reports malformed configurations.
func (c Config) Validate() error {
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if c.L1SizeKiB <= 0 || c.L1Ways <= 0 {
		return fmt.Errorf("sim: L1 geometry %dKiB/%d-way", c.L1SizeKiB, c.L1Ways)
	}
	if err := c.l1Config(0).Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.Cores != 1 && c.Cores != 4 {
		return fmt.Errorf("sim: cores = %d (1 or 4)", c.Cores)
	}
	return nil
}

// Label returns a short description for reports, e.g. "sipt-32K2w".
func (c Config) Label() string {
	return fmt.Sprintf("%s-%dK%dw", c.Mode, c.L1SizeKiB, c.L1Ways)
}

// l1Config builds the SIPT engine configuration, pulling latency from
// the CACTI model / Tab. II.
func (c Config) l1Config(seed int64) core.Config {
	p := cacti.Params(c.L1SizeKiB, c.L1Ways, FreqGHz)
	return core.Config{
		Cache: cache.Config{
			Name:          "L1",
			SizeBytes:     uint64(c.L1SizeKiB) << 10,
			Ways:          c.L1Ways,
			LineBytes:     64,
			LatencyCycles: p.LatencyCycles,
		},
		Mode:                 c.Mode,
		TLBLatency:           tlb.Default().L1Latency,
		WayPrediction:        c.WayPrediction,
		PerfectWayPrediction: c.PerfectWayPrediction,
		NoContig:             c.NoContig,
		Seed:                 seed,
	}
}

// threeLevel reports whether the hierarchy has a private L2 (the OOO
// system of Tab. II; the in-order system is two-level).
func (c Config) threeLevel() bool { return !c.Core.InOrder }

// l2Config is Tab. II's private L2: 256 KiB, 8-way, 12-cycle.
func l2Config() cache.Config {
	return cache.Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, LineBytes: 64, LatencyCycles: 12}
}

// llcConfig builds the shared LLC for the hierarchy/core count:
// OOO: 2 MiB x cores, 16-way, 25-cycle; in-order: 1 MiB x cores,
// 16-way, 20-cycle (Tab. II).
func (c Config) llcConfig() cache.Config {
	if c.threeLevel() {
		return cache.Config{Name: "LLC", SizeBytes: uint64(c.Cores) * (2 << 20),
			Ways: 16, LineBytes: 64, LatencyCycles: 25}
	}
	return cache.Config{Name: "LLC", SizeBytes: uint64(c.Cores) * (1 << 20),
		Ways: 16, LineBytes: 64, LatencyCycles: 20}
}

// energyParams builds the Tab. II energy model for this system.
func (c Config) energyParams() energy.Params {
	l1 := cacti.Params(c.L1SizeKiB, c.L1Ways, FreqGHz)
	var p energy.Params
	p.FreqGHz = FreqGHz
	p.L1Ways = c.L1Ways
	if c.Mode == core.ModeBypass || c.Mode == core.ModeCombined {
		// Perceptron read + train + IDB, < 2% of an L1 access (paper's
		// estimate; the perceptron read alone is 0.34%).
		p.PredictorDynFrac = 0.01
	}
	// Private structures replicate per core.
	p.Levels[energy.L1] = energy.LevelParams{
		Present: true, DynNJ: l1.EnergyNJ, StaticMW: l1.StaticMW * float64(c.Cores)}
	if c.threeLevel() {
		p.Levels[energy.L2] = energy.LevelParams{
			Present: true, DynNJ: 0.13, StaticMW: 102 * float64(c.Cores)}
		p.Levels[energy.LLC] = energy.LevelParams{
			Present: true, DynNJ: 0.35, StaticMW: 578 * float64(c.Cores)}
	} else {
		p.Levels[energy.LLC] = energy.LevelParams{
			Present: true, DynNJ: 0.29, StaticMW: 532 * float64(c.Cores)}
	}
	return p
}

// dramConfig returns the Tab. II DRAM system.
func dramConfig() dram.Config { return dram.Default() }
