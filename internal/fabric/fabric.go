// Package fabric is the distributed sweep fabric: it spreads a sweep's
// config grid across a fleet of siptd worker daemons and merges the
// partial results into a report that is bit-identical to the
// single-node path.
//
// The unit of distribution is the shard: one (app, scenario, seed,
// records) trace plus the batch of configurations to simulate against
// it. Shards route by consistent-hash trace affinity (Ring): the same
// TraceKey always lands on the same worker, so each worker's replay
// pool materialises every trace exactly once and stays hot across the
// whole sweep. Workers execute shards through their ordinary
// RunConfigs path and answer raw sim.Stats, which round-trip exactly
// through JSON (Go encodes float64 at shortest-round-trip precision);
// all averaging and table assembly happens once, on the coordinator,
// in the same code and the same order as a single-node run — which is
// the determinism-of-merge argument (DESIGN.md §11) the equality gate
// in fabric_test.go enforces.
//
// Failure model: transient shard failures (connection errors, 429
// backpressure, 5xx, a failed worker job) retry in place on
// fault.Retry, the bounded backoff ladder internal/serve uses too; a worker that keeps
// failing is ejected from the ring (Coordinator.noteFail) and its
// shards re-route to the survivors, whose assignments do not move —
// consistent hashing keeps the reshuffle minimal. A sweep fails only
// when its context expires, a worker reports a permanent protocol
// error, or every worker has been ejected.
package fabric

import (
	"fmt"

	"sipt/internal/sim"
)

// TraceKey identifies one materialised trace — the unit of worker
// affinity. Shards with the same key always route to the same worker
// so its replay pool serves every config batch from one
// materialisation.
type TraceKey struct {
	App      string
	Scenario string
	Seed     int64
	Records  uint64
}

// String renders the key in the same shape the memo and trace-pool
// keys use; it is the ring's hash input.
func (k TraceKey) String() string {
	return fmt.Sprintf("%s|%s|%d|%d", k.App, k.Scenario, k.Seed, k.Records)
}

// ShardRequest is the body of POST /v1/shard: simulate Configs against
// the (App, Scenario, Seed, Records) trace and answer the stats
// positionally. Configs ship as full sim.Config documents so a worker
// needs no grid knowledge; every field is exported and integral or
// boolean, so the JSON round trip is exact.
type ShardRequest struct {
	App      string       `json:"app"`
	Scenario string       `json:"scenario"`
	Seed     int64        `json:"seed"`
	Records  uint64       `json:"records"`
	Timeout  int64        `json:"timeout_ms,omitempty"` // worker-side job deadline
	Configs  []sim.Config `json:"configs"`
}

// Key returns the request's trace-affinity key.
func (r ShardRequest) Key() TraceKey {
	return TraceKey{App: r.App, Scenario: r.Scenario, Seed: r.Seed, Records: r.Records}
}

// Shard job lifecycle states, mirroring the serve job store's Status
// strings. They are re-declared here (string-typed) so the protocol
// package does not depend on the server.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// ShardView is the body of GET /v1/shards/{id}: the shard job's state
// and, once done, its stats — Stats[i] is Configs[i]'s result,
// bit-for-bit what the worker's local Run would have produced.
type ShardView struct {
	ID     string      `json:"id"`
	Status string      `json:"status"`
	Error  string      `json:"error,omitempty"`
	Stats  []sim.Stats `json:"stats,omitempty"`
}

// Terminal reports whether a shard status string is final.
func Terminal(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCanceled
}
