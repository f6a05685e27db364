package serve

import (
	"context"
	"sync"

	"sipt/internal/fabric"
	"sipt/internal/report"
	"sipt/internal/sim"
)

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued: accepted, waiting for a worker.
	StatusQueued Status = "queued"
	// StatusRunning: a worker is simulating.
	StatusRunning Status = "running"
	// StatusDone: finished successfully; Tables holds the result.
	StatusDone Status = "done"
	// StatusFailed: the run returned an error (including deadline
	// expiry).
	StatusFailed Status = "failed"
	// StatusCanceled: the run stopped because the job was cancelled via
	// DELETE /v1/jobs/{id}.
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// jobResult is what a job's run function produces: rendered tables for
// runs and sweeps, raw stats for fabric shards. Exactly one of the
// fields is populated, matching the job's kind.
type jobResult struct {
	tables []*report.Table
	stats  []sim.Stats
}

// Job is one accepted unit of API work (a run, a sweep, or a fabric
// shard).
type Job struct {
	// Immutable after creation.
	id     string
	kind   string // a kinds row's name; a journal may carry an unknown one
	cancel context.CancelFunc
	done   chan struct{} // closed when the job reaches a terminal state

	mu          sync.Mutex
	status      Status
	result      jobResult
	errMsg      string
	submittedNS int64
	startedNS   int64
	finishedNS  int64
}

// newTerminalJob builds an already-settled job record: journal recovery
// re-registers finished work with it so GET /v1/jobs/{id} keeps
// answering across a restart. done starts closed and cancel is a no-op
// — there is nothing left to wait for or stop.
func newTerminalJob(id, kind string, st Status, res jobResult, errMsg string) *Job {
	j := &Job{
		id:     id,
		kind:   kind,
		cancel: func() {},
		done:   make(chan struct{}),
		status: st,
		result: res,
		errMsg: errMsg,
	}
	close(j.done)
	return j
}

// ID returns the job's identifier ("job-1", "job-2", ... in admission
// order — deterministic, so tests and logs are stable).
func (j *Job) ID() string { return j.id }

// Done returns a channel closed once the job is terminal.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests cancellation; the running simulation observes it at
// its next context poll. Terminal jobs are unaffected.
func (j *Job) Cancel() { j.cancel() }

// Status returns the job's current state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

func (j *Job) setRunning(now int64) {
	j.mu.Lock()
	j.status = StatusRunning
	j.startedNS = now
	j.mu.Unlock()
}

// finish moves the job to a terminal state and closes done, reporting
// whether this call settled the job. Before done closes, the settling
// call runs record with the run latency in nanoseconds (0 if the job
// never started), so a waiter on Done() sees the terminal metrics
// already counted. It is idempotent: once terminal, a job's state never
// changes and done is never closed twice — the first settler wins, and
// later calls record nothing. (A panicking job can race its observer
// against runJob's own bookkeeping; idempotency makes the pair safe by
// construction.)
func (j *Job) finish(st Status, res jobResult, errMsg string, now int64, record func(latNS int64)) bool {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.status = st
	j.result = res
	j.errMsg = errMsg
	j.finishedNS = now
	lat := int64(0)
	if j.startedNS != 0 {
		lat = now - j.startedNS
	}
	j.mu.Unlock()
	record(lat)
	close(j.done)
	return true
}

// JobView is the JSON shape of GET /v1/jobs/{id}. Field order is the
// API contract (encoding/json emits declaration order).
type JobView struct {
	ID        string          `json:"id"`
	Kind      string          `json:"kind"`
	Status    Status          `json:"status"`
	Error     string          `json:"error,omitempty"`
	ElapsedMS float64         `json:"elapsed_ms,omitempty"`
	Tables    []*report.Table `json:"tables,omitempty"`
}

// View snapshots the job for the API.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{ID: j.id, Kind: j.kind, Status: j.status, Error: j.errMsg}
	if j.finishedNS != 0 && j.startedNS != 0 {
		v.ElapsedMS = float64(j.finishedNS-j.startedNS) / 1e6
	}
	if j.status == StatusDone {
		v.Tables = j.result.tables
	}
	return v
}

// shardView snapshots a shard job in the fabric wire shape
// (GET /v1/shards/{id}): status plus, once done, the raw positional
// stats the coordinator merges.
func (j *Job) shardView() fabric.ShardView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := fabric.ShardView{ID: j.id, Status: string(j.status), Error: j.errMsg}
	if j.status == StatusDone {
		v.Stats = j.result.stats
	}
	return v
}

// jobStore indexes jobs by ID with FIFO eviction of terminal records
// beyond a cap, so a resident daemon cannot accumulate job metadata
// without bound. Lookup is by key only — the map is never ranged
// (detrand); eviction walks the insertion-ordered slice.
type jobStore struct {
	mu    sync.Mutex
	byID  map[string]*Job
	order []string // insertion order, for bounded eviction
	max   int
}

func newJobStore(max int) *jobStore {
	if max <= 0 {
		max = 256
	}
	return &jobStore{byID: make(map[string]*Job), max: max}
}

func (s *jobStore) add(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byID[j.id] = j
	s.order = append(s.order, j.id)
	// Evict the oldest terminal records over the cap. Live jobs are
	// never evicted — their count is already bounded by the scheduler's
	// queue depth plus worker count.
	for i := 0; len(s.byID) > s.max && i < len(s.order); {
		id := s.order[i]
		old, ok := s.byID[id]
		if ok && !old.Status().Terminal() {
			i++
			continue
		}
		if ok {
			delete(s.byID, id)
		}
		s.order = append(s.order[:i], s.order[i+1:]...)
	}
}

func (s *jobStore) get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	return j, ok
}

func (s *jobStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}
