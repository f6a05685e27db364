// Persistent-store integration: when Options.Store is set, the runner's
// memo cache gains an on-disk content-addressed tier, so simulation
// results survive process restarts. Layering:
//
//	memo.Cache (RAM, singleflight)  ->  store.Store (disk)  ->  simulate
//
// Synthetic traces are not stored. They are fully determined by
// (profile, scenario, seed, records), and regenerating one costs less
// than encoding and fsyncing it (DESIGN.md §13), so a result miss
// rematerialises its trace into the RAM pool. Uploaded traces live in
// serve's separate trace store.
//
// Every stored result is keyed by SHA-256 over (trace digest, the full
// memo key, a stats-schema fingerprint). The memo key already formats
// the entire sim.Config plus app/scenario/records/seed, so the
// exhaustiveness argument of Runner.key carries over to disk; the
// schema fingerprint retires every stored result the moment sim.Stats
// gains or loses a field, turning format skew into a cache miss instead
// of a misparse. Stats travel as JSON: Go's shortest-round-trip float
// encoding reproduces float64s exactly (the same property the fabric
// relies on for bit-identical distributed merges), so a warm read
// renders byte-identical tables — the equality gate in store_test.go.
package exp

import (
	"encoding/json"
	"fmt"
	"strconv"

	"sipt/internal/replay"
	"sipt/internal/sim"
	"sipt/internal/store"
	"sipt/internal/vm"
)

// statsSchemaFP fingerprints the shape of sim.Stats (field names and
// zero values, recursively). Any schema change alters the fingerprint,
// so stale blobs are simply never found.
var statsSchemaFP = fmt.Sprintf("%+v", sim.Stats{})

// traceDigest is the content address standing in for a synthetic
// trace's bytes: the identity tuple that fully determines the record
// stream (the replay pool's key, exactly). Uploaded traces use the
// SHA-256 of their file bytes instead; both flow into result keys the
// same way.
func (r *Runner) traceDigest(app string, sc vm.Scenario) string {
	return store.KeyOf("synthetic", "v1", app, sc.String(),
		strconv.FormatInt(r.opts.Seed, 10), strconv.FormatUint(r.opts.records(), 10)).String()
}

// resultStoreKey addresses one simulation result: the trace identity,
// the full memo key (app, whole config, scenario, records, seed), and
// the stats schema.
func (r *Runner) resultStoreKey(digest, memoKey string) store.Key {
	return store.KeyOf("result", "v1", digest, memoKey, statsSchemaFP)
}

// storeGet fetches and decodes a stored result. Any failure — absent,
// corrupt (already deleted by the store), or undecodable — reads as
// "not stored": the caller recomputes and re-Puts.
func (r *Runner) storeGet(key store.Key) (sim.Stats, bool) {
	if r.sh.store == nil {
		return sim.Stats{}, false
	}
	blob, err := r.sh.store.Get(key)
	if err != nil {
		return sim.Stats{}, false
	}
	var st sim.Stats
	if err := json.Unmarshal(blob, &st); err != nil {
		r.sh.store.Delete(key)
		return sim.Stats{}, false
	}
	return st, true
}

// storePut persists one result, best-effort: a full disk or an
// over-budget blob degrades persistence, never the run. A successful
// Put fires the view's checkpoint hook (WithCheckpoint) — only then,
// because a checkpoint promises the blob is readable after a restart.
func (r *Runner) storePut(key store.Key, st sim.Stats) {
	if r.sh.store == nil {
		return
	}
	blob, err := json.Marshal(st)
	if err != nil {
		return
	}
	if r.sh.store.Put(key, blob) == nil && r.ckpt != nil {
		r.ckpt(key)
	}
}

// StoreStats snapshots the persistent store's counters for the
// daemon's /metrics endpoint; ok is false when no store is configured.
func (r *Runner) StoreStats() (store.Stats, bool) {
	if r.sh.store == nil {
		return store.Stats{}, false
	}
	return r.sh.store.Stats(), true
}

// RunTrace simulates one config against an externally supplied trace
// (an ingested upload), memoised in RAM and, when a store is
// configured, on disk under the trace's content digest. digest must be
// the canonical content address of the trace bytes; name labels the
// stats (Stats.App) and reports. load fetches and decodes the trace; it
// runs at most once, and only when neither the memo nor the store
// already holds the result, so a warm run never reads the trace.
func (r *Runner) RunTrace(digest, name string, load func() (*replay.Buffer, error), cfg sim.Config) (sim.Stats, error) {
	memoKey := fmt.Sprintf("trace:%s|%s|%+v|%d", digest, name, cfg, r.opts.Seed)
	// runOne's batch is exactly []sim.Config{cfg}.
	return r.runOne(memoKey, digest, cfg, func([]sim.Config) ([]sim.Stats, error) {
		buf, err := load()
		if err != nil {
			return nil, err
		}
		st, err := sim.RunTrace(r.Context(), name, buf.Cursor(), cfg, r.opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("exp: replaying trace %.12s on %s: %w", digest, cfg.Label(), err)
		}
		return []sim.Stats{st}, nil
	})
}
