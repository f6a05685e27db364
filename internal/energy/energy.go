// Package energy accounts cache-hierarchy energy the way the paper
// does (Sec. III-A): per-level dynamic energy (accesses x energy per
// access, from CACTI / Tab. II) plus per-level static energy (leakage
// power x runtime). Way-prediction hits scale L1 dynamic energy by
// 1/ways (Sec. VII-A); the predictors themselves are charged a small
// constant overhead (< 2% of L1, per the paper's estimate).
package energy

import "fmt"

// Level identifies a cache-hierarchy level.
type Level int

const (
	L1 Level = iota
	L2
	LLC
	numLevels
)

// String returns the level's report label.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case LLC:
		return "LLC"
	default:
		return "unknown"
	}
}

// LevelParams holds one level's energy characteristics.
type LevelParams struct {
	Present  bool
	DynNJ    float64 // dynamic energy per access, nanojoules
	StaticMW float64 // leakage power, milliwatts
}

// Params configures the accountant.
type Params struct {
	Levels [numLevels]LevelParams
	// FreqGHz converts cycles to seconds for static energy.
	FreqGHz float64
	// L1Ways scales way-predicted accesses (1/ways of full dynamic).
	L1Ways int
	// PredictorDynFrac is the predictor read+train energy as a fraction
	// of a full L1 access, charged per demand access when a SIPT
	// predictor is active (paper: 0.34% to read, similar to train,
	// total < 2% including the IDB).
	PredictorDynFrac float64
}

// Validate reports malformed parameters.
func (p Params) Validate() error {
	if p.FreqGHz <= 0 {
		return fmt.Errorf("energy: FreqGHz = %v", p.FreqGHz)
	}
	if p.L1Ways <= 0 {
		return fmt.Errorf("energy: L1Ways = %d", p.L1Ways)
	}
	if p.PredictorDynFrac < 0 || p.PredictorDynFrac > 0.05 {
		return fmt.Errorf("energy: PredictorDynFrac = %v (paper bound: <2%%)", p.PredictorDynFrac)
	}
	for l := Level(0); l < numLevels; l++ {
		lp := p.Levels[l]
		if lp.Present && (lp.DynNJ < 0 || lp.StaticMW < 0) {
			return fmt.Errorf("energy: %v has negative parameters", l)
		}
	}
	return nil
}

// Account accumulates events; the zero value is unusable — use New.
type Account struct {
	p Params
	// accesses counts full-energy accesses per level.
	accesses [numLevels]uint64
	// wayPredicted counts L1 accesses served at 1/ways dynamic energy.
	wayPredicted uint64
	// predictorOps counts demand accesses charged predictor overhead.
	predictorOps uint64
}

// New creates an accountant; it panics on invalid parameters.
func New(p Params) *Account {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Account{p: p}
}

// AddAccesses records n full-cost accesses at a level (for L1 this
// includes SIPT's extra/wasted array reads).
func (a *Account) AddAccesses(l Level, n uint64) {
	if !a.p.Levels[l].Present && n > 0 {
		panic(fmt.Sprintf("energy: access to absent level %v", l))
	}
	a.accesses[l] += n
}

// AddWayPredictedL1 records n L1 accesses that hit in the predicted way
// and therefore cost 1/ways of the full dynamic energy.
func (a *Account) AddWayPredictedL1(n uint64) { a.wayPredicted += n }

// AddPredictorOps records n accesses that exercised the SIPT
// predictors (perceptron read + train, IDB read + update).
func (a *Account) AddPredictorOps(n uint64) { a.predictorOps += n }

// Breakdown is the energy report in joules.
type Breakdown struct {
	DynamicJ   [numLevels]float64
	StaticJ    [numLevels]float64
	PredictorJ float64
}

// Dynamic returns total dynamic energy (including predictor overhead).
func (b Breakdown) Dynamic() float64 {
	t := b.PredictorJ
	for _, d := range b.DynamicJ {
		t += d
	}
	return t
}

// Static returns total static energy.
func (b Breakdown) Static() float64 {
	var t float64
	for _, s := range b.StaticJ {
		t += s
	}
	return t
}

// Total returns total cache-hierarchy energy.
func (b Breakdown) Total() float64 { return b.Dynamic() + b.Static() }

// Finish computes the breakdown for a run of the given length in
// cycles.
func (a *Account) Finish(cycles uint64) Breakdown {
	var b Breakdown
	seconds := float64(cycles) / (a.p.FreqGHz * 1e9)
	for l := Level(0); l < numLevels; l++ {
		lp := a.p.Levels[l]
		if !lp.Present {
			continue
		}
		b.DynamicJ[l] = float64(a.accesses[l]) * lp.DynNJ * 1e-9
		b.StaticJ[l] = lp.StaticMW * 1e-3 * seconds
	}
	// Way-predicted accesses at 1/ways.
	b.DynamicJ[L1] += float64(a.wayPredicted) * a.p.Levels[L1].DynNJ * 1e-9 / float64(a.p.L1Ways)
	b.PredictorJ = float64(a.predictorOps) * a.p.Levels[L1].DynNJ * 1e-9 * a.p.PredictorDynFrac
	return b
}
