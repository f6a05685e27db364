// Durability layer (DESIGN.md §15): the glue between the job machinery
// and the write-ahead journal. With Config.Journal set, every admission
// is journaled (fsync) before the 202, lifecycle transitions follow as
// they happen, sweep progress is checkpointed per persisted lane, and
// recoverJournal rebuilds the job table at startup:
//
//   - finished jobs are re-registered terminal, their rendered results
//     reloaded from the result store by the digest in the finished
//     record (blob evicted -> deterministic recompute instead);
//   - cancelled and failed jobs are re-registered terminal with their
//     recorded error;
//   - everything else was in flight when the process died: its closure
//     is rebuilt from the admitted record's request body and
//     resubmitted under the original ID. Checkpointed lanes are already
//     in the result store, so the rerun is store-reads plus only the
//     missing lanes' simulations — byte-identical output, minimal work.
//
// Journal appends after admission are deliberately best-effort: a
// failed progress record degrades crash recovery (more recompute), not
// serving. Only the admission append is load-bearing — if the server
// cannot make a job durable it refuses to ack it (errNotDurable, 503).
package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"sipt/internal/journal"
	"sipt/internal/report"
	"sipt/internal/sim"
	"sipt/internal/store"
)

// resultBlob is a finished job's rendered result as persisted in the
// result store: tables for runs and sweeps, raw stats for shards —
// exactly jobResult, made serialisable. report.Table and sim.Stats both
// round-trip through JSON bit-exactly (the property the fabric merge
// relies on), so a recovered job serves byte-identical responses.
type resultBlob struct {
	Tables []*report.Table `json:"tables,omitempty"`
	Stats  []sim.Stats     `json:"stats,omitempty"`
}

// journalAppend appends one record, counting failures. All journal
// writes funnel through here so serve_journal_errors_total cannot miss
// one.
func (s *Server) journalAppend(rec journal.Record, sync bool) error {
	if s.jnl == nil {
		return nil
	}
	if err := s.jnl.Append(rec, sync); err != nil {
		s.journalErrs.Inc()
		return err
	}
	return nil
}

// journalAdmit makes one admission durable: the record carries the
// job's numeric sequence (its dense ID) and the re-marshalled request
// body, everything recovery needs to rebuild the closure. Called under
// the admission lock; the error aborts the admission.
func (s *Server) journalAdmit(j *Job, seq uint64, kind string, req any) error {
	if s.jnl == nil {
		return nil
	}
	raw, err := json.Marshal(req)
	if err != nil {
		s.journalErrs.Inc()
		return fmt.Errorf("encoding request: %v", err)
	}
	return s.journalAppend(journal.Record{
		Type: journal.TypeAdmitted, ID: j.id, Seq: seq, Kind: kind, Request: raw,
	}, true)
}

// journalStart records that a worker picked the job up. Unsynced and
// best-effort: losing it means recovery re-runs a job that had barely
// started — no state is wrong, only a little work repeated.
func (s *Server) journalStart(j *Job) {
	s.journalAppend(journal.Record{Type: journal.TypeStarted, ID: j.id}, false) //nolint:errcheck // counted; progress records are best-effort
}

// journalCancel records a cancellation request before it is signalled,
// synced: once the client's DELETE is acked, no restart may resurrect
// the job.
func (s *Server) journalCancel(j *Job) {
	s.journalAppend(journal.Record{Type: journal.TypeCanceled, ID: j.id}, true) //nolint:errcheck // counted; the in-RAM cancel still proceeds
}

// journalFinish seals a settled job, synced. Done jobs persist their
// rendered result to the result store first and record its digest —
// the journal itself holds only the pointer, staying tiny.
func (s *Server) journalFinish(j *Job, res jobResult) {
	if s.jnl == nil {
		return
	}
	v := j.View()
	rec := journal.Record{Type: journal.TypeFinished, ID: j.id, Status: string(v.Status)}
	if v.Status == StatusDone {
		rec.Digest = s.persistResult(res)
	} else {
		rec.Error = v.Error
	}
	s.journalAppend(rec, true) //nolint:errcheck // counted; worst case recovery recomputes
}

// laneCheckpoint returns the per-lane progress hook for job id, handed
// to exp.Runner.WithCheckpoint: every result the runner persists while
// executing this job is journaled as a lane digest, so a restart
// re-simulates only lanes with no digest on record. Nil when no journal
// is configured — the runner treats a nil hook as off.
func (s *Server) laneCheckpoint(id string) func(store.Key) {
	if s.jnl == nil {
		return nil
	}
	return func(k store.Key) {
		s.journalAppend(journal.Record{Type: journal.TypeLane, ID: id, Digest: k.String()}, false) //nolint:errcheck // counted; a lost checkpoint re-simulates one lane
	}
}

// persistResult stores a finished job's rendered result, returning its
// digest ("" when persistence is unavailable — the finished record then
// carries no digest and recovery recomputes).
func (s *Server) persistResult(res jobResult) string {
	if s.resultStore == nil {
		return ""
	}
	blob, err := json.Marshal(resultBlob{Tables: res.tables, Stats: res.stats})
	if err != nil {
		return ""
	}
	key := store.KeyOfBytes(blob)
	if err := s.resultStore.Put(key, blob); err != nil {
		return ""
	}
	return key.String()
}

// loadResult revives a finished job's result from the store by the
// digest its finished record carries.
func (s *Server) loadResult(digest string) (jobResult, bool) {
	if s.resultStore == nil || digest == "" {
		return jobResult{}, false
	}
	key, err := store.ParseKey(digest)
	if err != nil {
		return jobResult{}, false
	}
	blob, err := s.resultStore.Get(key)
	if err != nil {
		return jobResult{}, false
	}
	var rb resultBlob
	if err := json.Unmarshal(blob, &rb); err != nil {
		return jobResult{}, false
	}
	return jobResult{tables: rb.Tables, stats: rb.Stats}, true
}

// recoverJournal replays the journal at startup: the ID allocator
// resumes past every sequence ever issued (IDs stay dense and never
// repeat across restarts), then each surviving job is either
// re-registered terminal or resubmitted. Runs inside New, before the
// listener exists, so recovery races no external admissions.
func (s *Server) recoverJournal() {
	s.nextID = s.jnl.MaxSeq()
	for _, js := range s.jnl.Jobs() {
		s.recoverJob(js)
		s.journalReplayed.Inc()
	}
}

// recoverJob rebuilds one journaled job.
func (s *Server) recoverJob(js journal.JobState) {
	if js.Settled() {
		switch Status(js.Status) {
		case StatusDone:
			if res, ok := s.loadResult(js.Digest); ok {
				s.adoptTerminal(js, StatusDone, res, "")
				return
			}
			// The result blob was evicted (or never persisted). The
			// request is still on record and simulation is
			// deterministic: fall through and recompute — every lane is
			// in the result store, so this is a cheap re-render.
		case StatusCanceled:
			s.adoptTerminal(js, StatusCanceled, jobResult{}, js.Error)
			return
		default:
			s.adoptTerminal(js, StatusFailed, jobResult{}, js.Error)
			return
		}
	}
	s.resume(js)
}

// adoptTerminal re-registers a settled job so GET /v1/jobs/{id} keeps
// answering for it across the restart.
func (s *Server) adoptTerminal(js journal.JobState, st Status, res jobResult, errMsg string) {
	s.jobs.add(newTerminalJob(js.ID, js.Kind, st, res, errMsg))
}

// resume resubmits an interrupted job under its original ID. The
// closure is rebuilt from the admitted record's request body; its
// checkpointed lanes are already in the result store, so the rerun
// serves those from disk and simulates only what the crash lost. A job
// that can no longer be rebuilt or resubmitted settles failed with the
// reason — never silently dropped.
func (s *Server) resume(js journal.JobState) {
	k, run, timeout, err := s.rebuildRun(js)
	if err != nil {
		s.adoptTerminal(js, StatusFailed, jobResult{}, fmt.Sprintf("recovery: %v", err))
		s.journalFinish(&Job{id: js.ID, kind: js.Kind, status: StatusFailed, errMsg: fmt.Sprintf("recovery: %v", err)}, jobResult{})
		return
	}
	// No admitted record is appended: the journal already has this job,
	// and a duplicate admission would reset its checkpointed lanes.
	j, err := s.schedule(js.ID, js.Kind, k.pri, timeout, run)
	if err != nil {
		s.adoptTerminal(js, StatusFailed, jobResult{}, fmt.Sprintf("recovery resubmit: %v", err))
		return
	}
	s.jobs.add(j)
	if k.resumed {
		s.sweepsResumed.Inc()
	}
}

// rebuildRun looks up a journaled job's kind and rebuilds its closure
// and deadline from the admitted request body through the kind's own
// builder, the one its HTTP admission ran. The body decodes leniently
// (unknown fields are ignored): the HTTP path decoded it strictly at
// admission.
func (s *Server) rebuildRun(js journal.JobState) (*jobKind, runFunc, time.Duration, error) {
	k := kindNamed(js.Kind)
	if k == nil {
		return nil, nil, 0, fmt.Errorf("unknown job kind %q", js.Kind)
	}
	_, run, timeout, err := k.build(s, func(v any) error {
		if err := json.Unmarshal(js.Request, v); err != nil {
			return fmt.Errorf("bad journaled request: %v", err)
		}
		return nil
	})
	return k, run, timeout, err
}
