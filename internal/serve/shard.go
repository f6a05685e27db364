package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"sipt/internal/fabric"
	"sipt/internal/vm"
	"sipt/internal/workload"
)

// buildShard validates a fabric shard (POST /v1/shard): a batch of
// configs to simulate against a single (app, scenario, seed, records)
// trace. It returns the closure that runs the batch through the
// runner's RunConfigs, which keeps the worker's replay pool hot for its
// affinity keys and answers raw stats for the coordinator to merge.
// Each config the runner persists is journaled as a checkpoint under
// the job's ID, so a worker restart re-simulates only the lanes with no
// digest on record — RunConfigs' store pre-partition serves the rest
// from disk.
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
	view := s.jobRunner(req.Records, req.Seed, nil)
	return func(ctx context.Context, id string) (jobResult, error) {
		stats, err := view(ctx, id).RunConfigs(req.App, req.Configs, sc)
		return jobResult{stats: stats}, err
	}, nil
}

// handleShardGet reports one shard job (GET /v1/shards/{id}) in the
// fabric wire shape. Non-shard jobs 404 here: the two namespaces stay
// distinct so a coordinator cannot accidentally poll a user job.
func (s *Server) handleShardGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok || j.kind != kinds[shardKind].name {
		writeError(w, http.StatusNotFound, "no such shard %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.shardView())
}
