package serve

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"sipt/internal/exp"
	"sipt/internal/journal"
	"sipt/internal/store"
)

// kindGen is one server generation for TestEveryKindRecovers: a
// journal and a result store of its own over a trace store shared by
// every generation, like a daemon restarted over its trace directory.
func kindGen(t *testing.T, jnlDir, traceDir string) (*Server, string) {
	t.Helper()
	results, err := store.Open(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := store.Open(traceDir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := journal.Open(jnlDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	runner := exp.NewRunner(exp.Options{Records: 2_000, Seed: 1, CacheEntries: 64, Store: results})
	s := New(Config{Runner: runner, Workers: 2, TraceStore: traces, Journal: jnl, ResultStore: results})
	ts := serveHTTP(t, s)
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
		jnl.Close()
	})
	return s, ts.URL
}

// kindResult waits for job-1 and returns its result as the client reads
// it: the tables of a run or sweep, the raw stats of a shard.
func kindResult(t *testing.T, base, kind string) string {
	t.Helper()
	v := waitJob(t, base, "job-1", 60*time.Second)
	if v.Status != StatusDone {
		t.Fatalf("job-1 = %+v, want done", v)
	}
	if kind != "shard" {
		return tablesJSON(t, v)
	}
	b, err := json.Marshal(waitShard(t, base, "job-1", time.Second).Stats)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestEveryKindRecovers: for every job kind, a journal holding only the
// admitted record, byte for byte as an uninterrupted server writes it,
// resumes at startup to the uninterrupted result. Only sweeps and
// shards count on serve_sweeps_resumed_total. The admitted request
// bytes are pinned, so a journal written by an older daemon keeps
// replaying on a newer one.
func TestEveryKindRecovers(t *testing.T) {
	enc, digest := encodeTestTrace(t, "libquantum", 7, 3_000)
	const shard = `{"app":"mcf","scenario":"normal","seed":0,"records":2000,"configs":[` +
		`{"Core":{"Name":"inorder","Width":2,"ROB":32,"InOrder":true,"HideLatency":0,"StallCap":0},` +
		`"L1SizeKiB":32,"L1Ways":8,"Mode":0,"WayPrediction":false,"PerfectWayPrediction":false,` +
		`"NoContig":false,"Cores":1}]}`
	cases := []struct {
		name     string
		kind     string
		body     string // POST body of the uninterrupted run
		admitted string // the admitted record's request bytes
		resumed  uint64 // serve_sweeps_resumed_total after recovery
	}{
		{"run", "run", `{"app":"mcf","mode":"vipt"}`, `{"app":"mcf","mode":"vipt"}`, 0},
		{"trace-run", "run", `{"trace":"` + digest + `"}`, `{"app":"","trace":"` + digest + `"}`, 0},
		{"sweep", "sweep", `{"experiment":"fig5","apps":["mcf"],"records":2000}`,
			`{"experiment":"fig5","apps":["mcf"],"records":2000}`, 1},
		{"shard", "shard", shard, shard, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			traceDir := t.TempDir()

			// The uninterrupted run, and the admitted record it journals.
			jnlDir := t.TempDir()
			s1, url1 := kindGen(t, jnlDir, traceDir)
			uploadTrace(t, url1, enc)
			if resp, body := postJSON(t, url1+"/v1/"+tc.kind, tc.body); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit = %d (%s)", resp.StatusCode, body)
			}
			want := kindResult(t, url1, tc.kind)
			s1.Drain()
			jobs, _, err := journal.Replay(jnlDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(jobs) != 1 || jobs[0].Kind != tc.kind || string(jobs[0].Request) != tc.admitted {
				t.Fatalf("admitted %+v, want one %s job with request %s", jobs, tc.kind, tc.admitted)
			}

			// A journal that stops right after the admission.
			jnlDir = t.TempDir()
			jnl, err := journal.Open(jnlDir, 0)
			if err != nil {
				t.Fatal(err)
			}
			rec := journal.Record{Type: journal.TypeAdmitted, ID: "job-1", Seq: 1, Kind: tc.kind, Request: []byte(tc.admitted)}
			if err := jnl.Append(rec, true); err != nil {
				t.Fatal(err)
			}
			if err := jnl.Close(); err != nil {
				t.Fatal(err)
			}

			s2, url2 := kindGen(t, jnlDir, traceDir)
			if got := kindResult(t, url2, tc.kind); got != want {
				t.Errorf("resumed result differs from the uninterrupted run:\n%s\nvs\n%s", got, want)
			}
			if n := s2.journalReplayed.Load(); n != 1 {
				t.Errorf("serve_journal_replayed_total = %d, want 1", n)
			}
			if n := s2.sweepsResumed.Load(); n != tc.resumed {
				t.Errorf("serve_sweeps_resumed_total = %d, want %d", n, tc.resumed)
			}
		})
	}
}
