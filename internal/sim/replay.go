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
// streaming from a materialised buffer instead of a live generator — a
// one-lane RunConfigs. Context semantics match RunApp.
func RunBuffer(ctx context.Context, name string, buf *replay.Buffer, cfg Config, seed int64) (Stats, error) {
	out, err := RunConfigs(ctx, name, buf, []Config{cfg}, seed)
	if err != nil {
		return Stats{}, err
	}
	return out[0], nil
}

// RunConfigs advances len(cfgs) independent simulated systems over one
// materialised trace through the structure-of-arrays sweep (see
// soa.go): every lane's machine state is carved from contiguous
// same-field slabs and each lane makes one pass over the packed words.
// Each configuration gets the full private machinery of a solo run
// (per-config LLC and DRAM — these are single-core systems that share
// nothing), so RunConfigs(buf, cfgs) returns exactly what looping
// RunBuffer over cfgs would, for none of the re-generation cost.
//
// Context semantics match RunApp: each lane's pass polls ctx every
// cpu.CtxCheckInterval records. Results are positional: out[i]
// corresponds to cfgs[i]. Duplicate configurations are simulated
// independently (callers that care deduplicate beforehand).
func RunConfigs(ctx context.Context, name string, buf *replay.Buffer, cfgs []Config, seed int64) ([]Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s, err := newSoaSweep(ctx, cfgs, seed)
	if err != nil {
		return nil, err
	}
	words := buf.Words()
	out := make([]Stats, len(cfgs))
	for lane, cfg := range cfgs {
		res, err := s.runLane(ctx, lane, words)
		if err != nil {
			return nil, fmt.Errorf("sim: fused run of %s (%d configs): %w", name, len(cfgs), err)
		}
		st := collect(cfg, name, res, &s.hs[lane], &s.accts[lane])
		if err := st.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("sim: fused run of %s on %s: %w", name, cfg.Label(), err)
		}
		out[lane] = st
	}
	return out, nil
}
