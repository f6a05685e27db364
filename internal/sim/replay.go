package sim

import (
	"context"
	"fmt"

	"sipt/internal/replay"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// Materialize generates one workload's trace into a packed replay
// buffer: the identical record stream RunApp would consume live, built
// with the identical system construction (same scenario, same seed,
// same allocation phase), so replaying the buffer reproduces RunApp
// bit-for-bit. records bounds the trace length (0 = DefaultRecords).
//
// Traces whose records do not fit the packed encoding return an error
// wrapping replay.ErrUnpackable; callers fall back to live generation.
func Materialize(prof workload.Profile, sc vm.Scenario, seed int64, records uint64) (*replay.Buffer, error) {
	if records == 0 {
		records = DefaultRecords
	}
	sys := NewSystem(sc, seed, prof)
	gen, err := workload.NewGenerator(prof, sys, seed, records)
	if err != nil {
		return nil, err
	}
	buf, err := replay.FromReader(gen, int(records))
	if err != nil {
		return nil, fmt.Errorf("sim: materialising %s/%s: %w", prof.Name, sc, err)
	}
	return buf, nil
}

// RunBuffer is the replay-aware RunApp: it simulates one configuration
// streaming from a materialised buffer instead of a live generator.
// Context semantics match RunApp.
func RunBuffer(ctx context.Context, name string, buf *replay.Buffer, cfg Config, seed int64) (Stats, error) {
	return RunTrace(ctx, name, buf.Cursor(), cfg, seed)
}

// RunConfigs simulates len(cfgs) independent single-core systems over
// one materialised trace by looping RunBuffer: each configuration gets
// a solo run's full private machine (its own LLC and DRAM; these
// systems share nothing) over its own cursor on the buffer, for none of
// the re-generation cost.
//
// Context semantics match RunApp: each run polls ctx every
// cpu.CtxCheckInterval records. Results are positional: out[i]
// corresponds to cfgs[i]. Duplicate configurations are simulated
// independently (callers that care deduplicate beforehand).
func RunConfigs(ctx context.Context, name string, buf *replay.Buffer, cfgs []Config, seed int64) ([]Stats, error) {
	out := make([]Stats, len(cfgs))
	for i, cfg := range cfgs {
		st, err := RunBuffer(ctx, name, buf, cfg, seed)
		if err != nil {
			return nil, fmt.Errorf("sim: sweep of %s (%d configs): %w", name, len(cfgs), err)
		}
		out[i] = st
	}
	return out, nil
}
