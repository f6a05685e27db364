package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"sipt/internal/exp"
	"sipt/internal/fabric"
	"sipt/internal/sched"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// handleShardSubmit accepts one fabric shard (POST /v1/shard): a batch
// of configs to simulate against a single (app, scenario, seed,
// records) trace. Shards run at Bulk priority — a coordinator is the
// caller, not a waiting user — through the same admission, retry, and
// job machinery as sweeps, so backpressure (429 + Retry-After) and
// drain behave identically. The job executes the runner's
// RunConfigs, which keeps the worker's replay pool hot for its
// affinity keys and answers raw stats for the coordinator to merge.
func (s *Server) handleShardSubmit(w http.ResponseWriter, r *http.Request) {
	if s.disableShards {
		writeError(w, http.StatusForbidden, "coordinator does not serve shards")
		return
	}
	var req fabric.ShardRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	run, err := s.buildShard(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := s.submit("shard", sched.Bulk, time.Duration(req.Timeout)*time.Millisecond, req, run)
	if err != nil {
		s.rejectSubmit(w, err)
		return
	}
	s.shardJobs.Inc()
	writeJSON(w, http.StatusAccepted, submitResponse{ID: j.ID(), Status: j.Status()})
}

// buildShard validates a ShardRequest and returns the closure that runs
// the batch through the runner's RunConfigs. Each config the
// runner persists is journaled as a checkpoint under the job's ID, so a
// worker restart re-simulates only the lanes with no digest on record —
// RunConfigs' store pre-partition serves the rest from disk.
func (s *Server) buildShard(req fabric.ShardRequest) (runFunc, error) {
	if req.App == "" {
		return nil, errors.New("missing app")
	}
	if _, err := workload.Lookup(req.App); err != nil {
		return nil, err
	}
	sc, err := vm.ParseScenario(req.Scenario)
	if err != nil {
		return nil, err
	}
	if len(req.Configs) == 0 {
		return nil, errors.New("empty config batch")
	}
	for i, cfg := range req.Configs {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("config %d: %v", i, err)
		}
	}
	base := s.runner.Options()
	opts := exp.Options{
		Records: req.Records,
		Seed:    req.Seed,
		Workers: base.Workers,
	}
	if opts.Records == 0 {
		opts.Records = base.Records
	}
	if opts.Seed == 0 {
		opts.Seed = base.Seed
	}
	cfgs := req.Configs
	return func(ctx context.Context, id string) (jobResult, error) {
		r := s.runner.WithOptions(opts).WithContext(ctx).WithCheckpoint(s.laneCheckpoint(id))
		stats, err := r.RunConfigs(req.App, cfgs, sc)
		return jobResult{stats: stats}, err
	}, nil
}

// handleShardGet reports one shard job (GET /v1/shards/{id}) in the
// fabric wire shape. Non-shard jobs 404 here: the two namespaces stay
// distinct so a coordinator cannot accidentally poll a user job.
func (s *Server) handleShardGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok || j.kind != "shard" {
		writeError(w, http.StatusNotFound, "no such shard %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.shardView())
}
