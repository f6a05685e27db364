package serve

import (
	"context"
	"net/http"
	"time"

	"sipt/internal/exp"
	"sipt/internal/fabric"
	"sipt/internal/sched"
)

// jobKind is one kind of job siptd serves: everything the submit
// handler and journal recovery need to know about it. A kind's name is
// the Kind of its jobs' views and journal records and the tail of its
// POST route (/v1/{name}).
type jobKind struct {
	name string
	pri  sched.Priority
	// resumed: recovering an interrupted job of this kind counts on
	// serve_sweeps_resumed_total.
	resumed bool
	build   buildFunc
	// refuse, when set, returns why this server does not serve the kind
	// ("" when it does). POST answers 403 with it before the body is
	// read.
	refuse func(*Server) string
	// admitted, when set, runs after each HTTP admission of the kind.
	admitted func(*Server)
}

// buildFunc decodes a request of its kind's type through decode,
// validates it, and returns the request (journaled at admission), the
// job body and its deadline (0 for none).
type buildFunc func(s *Server, decode func(any) error) (req any, run runFunc, timeout time.Duration, err error)

// Indexes into kinds.
const (
	runKind = iota
	sweepKind
	shardKind
)

// kinds is the one table of job kinds. A run simulates one app, or
// replays one ingested trace, on one config; a user is waiting, so it
// is Interactive. A sweep runs one experiment, and a shard is one
// fabric batch a coordinator sends its workers (shard.go); both are
// Bulk.
var kinds = [...]jobKind{
	runKind: {
		name:  "run",
		pri:   sched.Interactive,
		build: typedBuild((*Server).buildRun, func(r RunRequest) int64 { return r.Timeout }),
	},
	sweepKind: {
		name:    "sweep",
		pri:     sched.Bulk,
		resumed: true,
		build:   typedBuild((*Server).buildSweep, func(r SweepRequest) int64 { return r.Timeout }),
	},
	shardKind: {
		name:    "shard",
		pri:     sched.Bulk,
		resumed: true,
		build:   typedBuild((*Server).buildShard, func(r fabric.ShardRequest) int64 { return r.Timeout }),
		refuse: func(s *Server) string {
			if s.disableShards {
				return "coordinator does not serve shards"
			}
			return ""
		},
		admitted: func(s *Server) { s.shardJobs.Inc() },
	},
}

// typedBuild adapts a builder over request type R to the table: it
// decodes a fresh R, builds it, and reads its timeout_ms.
func typedBuild[R any](build func(*Server, R) (runFunc, error), timeoutMS func(R) int64) buildFunc {
	return func(s *Server, decode func(any) error) (any, runFunc, time.Duration, error) {
		var req R
		if err := decode(&req); err != nil {
			return nil, nil, 0, err
		}
		run, err := build(s, req)
		return req, run, time.Duration(timeoutMS(req)) * time.Millisecond, err
	}
}

// kindNamed returns the kind called name, or nil.
func kindNamed(name string) *jobKind {
	for i := range kinds {
		if kinds[i].name == name {
			return &kinds[i]
		}
	}
	return nil
}

// handleSubmit is POST /v1/{kind}: decode the body strictly, build the
// job, and admit it (202 with its ID), or answer why not: 403 when this
// server refuses the kind, 400 for a bad request, and the scheduler's
// or journal's rejection (see rejectSubmit).
func (s *Server) handleSubmit(k *jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if k.refuse != nil {
			if why := k.refuse(s); why != "" {
				writeError(w, http.StatusForbidden, "%s", why)
				return
			}
		}
		req, run, timeout, err := k.build(s, func(v any) error { return decodeBody(r, v) })
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		j, err := s.submit(k.name, k.pri, timeout, req, run)
		if err != nil {
			s.rejectSubmit(w, err)
			return
		}
		if k.admitted != nil {
			k.admitted(s)
		}
		writeJSON(w, http.StatusAccepted, submitResponse{ID: j.ID(), Status: j.Status()})
	}
}

// jobRunner returns the runner view a job body runs on: the base
// runner's options, with records and seed taken from the request where
// it sets them, bound to the job's context and journaling every lane
// it persists as a checkpoint under the job's ID.
func (s *Server) jobRunner(records uint64, seed int64, apps []string) func(ctx context.Context, id string) *exp.Runner {
	base := s.runner.Options()
	opts := exp.Options{Records: records, Seed: seed, Apps: apps, Workers: base.Workers}
	if opts.Records == 0 {
		opts.Records = base.Records
	}
	if opts.Seed == 0 {
		opts.Seed = base.Seed
	}
	return func(ctx context.Context, id string) *exp.Runner {
		return s.runner.WithOptions(opts).WithContext(ctx).WithCheckpoint(s.laneCheckpoint(id))
	}
}
