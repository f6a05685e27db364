// Kill-9 chaos gate: SIGKILL a journaled daemon mid-sweep — a real
// process, a real signal, no cooperation — restart it over the same
// directories, and assert the recovery contract: no lost or duplicated
// job IDs, the resumed sweep's output byte-identical to an
// uninterrupted reference, already-checkpointed lanes served from the
// store (not re-simulated), and the serve_journal_replayed_total /
// serve_sweeps_resumed_total accounting exact. The daemon is the test
// binary re-executing itself (TestHelperSiptd), so the gate runs under
// -race with no prebuilt artifacts.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"sipt/internal/journal"
)

const (
	helperEnv     = "SIPTD_HELPER_PROCESS"
	helperArgsEnv = "SIPTD_HELPER_ARGS"
	// helperArgsSep separates flag values in the env var; the unit
	// separator cannot appear in paths or flag values.
	helperArgsSep = "\x1f"
)

// TestHelperSiptd is not a test: it is the daemon body the chaos gate
// execs. Re-running the test binary (the standard helper-process
// pattern) gives the gate a real PID to SIGKILL.
func TestHelperSiptd(t *testing.T) {
	if os.Getenv(helperEnv) != "1" {
		t.Skip("helper process for the kill-9 gate; not a test")
	}
	args := strings.Split(os.Getenv(helperArgsEnv), helperArgsSep)
	if err := run(context.Background(), args, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "siptd:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// startDaemon execs one siptd generation and returns its process and
// base URL. The caller owns the process; cleanup reaps it if the test
// forgot (Kill on a dead process is a harmless error).
func startDaemon(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperSiptd$")
	cmd.Env = append(os.Environ(), helperEnv+"=1",
		helperArgsEnv+"="+strings.Join(args, helperArgsSep))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill() //nolint:errcheck // best-effort reap
		cmd.Wait()         //nolint:errcheck
	})

	// Scan the child's stdout for the listen line, then keep draining it
	// in the background so the child never blocks on a full pipe.
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		var line strings.Builder
		buf := make([]byte, 1)
		for {
			if _, err := stdout.Read(buf); err != nil {
				return
			}
			if buf[0] == '\n' {
				select {
				case lines <- line.String():
				default:
				}
				line.Reset()
				continue
			}
			line.WriteByte(buf[0])
		}
	}()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("daemon exited before printing its listen line")
			}
			if addr, found := strings.CutPrefix(line, "siptd: listening on http://"); found {
				go func() {
					for range lines { // drain forever
					}
				}()
				return cmd, "http://" + addr
			}
		case <-deadline:
			t.Fatal("no listen line within 30s")
		}
	}
}

// sigkill delivers SIGKILL and reaps the process — the one transition a
// drain-based shutdown can never exercise.
func sigkill(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() //nolint:errcheck // the kill is the expected exit
}

func submitJSON(t *testing.T, url, body string) string {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: status %d (%s)", url, resp.StatusCode, raw)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	return sub.ID
}

// jobView is the slice of JobView the gate compares byte-for-byte.
type jobView struct {
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Tables json.RawMessage `json:"tables"`
}

func getJob(t *testing.T, base, id string) jobView {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitDone(t *testing.T, base, id string, timeout time.Duration) jobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := getJob(t, base, id)
		switch v.Status {
		case "done":
			return v
		case "failed", "canceled":
			t.Fatalf("job %s ended %s: %s", id, v.Status, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, v.Status, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}

// metricValue extracts one metric's value from Prometheus text format.
func metricValue(t *testing.T, metrics, name string) int64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`).FindStringSubmatch(metrics)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, metrics)
	}
	n, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// The sweep under test: two apps x three configs = six result lanes,
// sized so a single worker takes seconds — a wide window to SIGKILL
// after some lanes are checkpointed but before the sweep finishes.
const gateSweep = `{"experiment":"fig6","apps":["mcf","libquantum"],"records":150000}`

func TestKill9RecoveryGate(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-9 gate execs real daemons; skipped in -short")
	}

	// Uninterrupted reference generation: same sweep, fresh dirs.
	refStore, refJnl := t.TempDir(), t.TempDir()
	refCmd, refBase := startDaemon(t, "-addr", "127.0.0.1:0", "-workers", "1",
		"-records", "2000", "-store-dir", refStore, "-journal-dir", refJnl)
	if id := submitJSON(t, refBase+"/v1/sweep", gateSweep); id != "job-1" {
		t.Fatalf("reference sweep admitted as %s, want job-1", id)
	}
	ref := waitDone(t, refBase, "job-1", 180*time.Second)
	sigkill(t, refCmd)
	refJobs, _, err := journal.Replay(refJnl)
	if err != nil {
		t.Fatal(err)
	}
	if len(refJobs) != 1 || len(refJobs[0].Lanes) == 0 {
		t.Fatalf("reference journal %+v, want one job with lanes", refJobs)
	}
	totalLanes := len(refJobs[0].Lanes)

	// Victim generation: same sweep, then SIGKILL once at least one lane
	// is checkpointed and at least one is still missing. The two apps'
	// batches run side by side and can both land between two polls,
	// settling the sweep before the kill window opens. Such a run cannot
	// test recovery, so it is repeated over fresh directories, at most
	// three more times; the checks below apply unchanged to the run kept.
	var storeDir, jnlDir string
	var checkpointed int
	for run := 1; checkpointed == 0; run++ {
		storeDir, jnlDir = t.TempDir(), t.TempDir()
		checkpointed = killMidSweep(t, storeDir, jnlDir, totalLanes)
		if checkpointed == 0 {
			if run > 3 {
				t.Fatalf("sweep finished before the kill window in %d runs; raise gateSweep records", run)
			}
			t.Logf("victim run %d missed the kill window; rerunning over fresh directories", run)
		}
	}

	// Recovery generation over the murdered state.
	revived, base := startDaemon(t, "-addr", "127.0.0.1:0", "-workers", "1",
		"-records", "2000", "-store-dir", storeDir, "-journal-dir", jnlDir)
	got := waitDone(t, base, "job-1", 180*time.Second)
	if string(got.Tables) != string(ref.Tables) {
		t.Errorf("resumed sweep output differs from uninterrupted reference:\n%s\nvs\n%s",
			got.Tables, ref.Tables)
	}

	metrics := getMetrics(t, base)
	if n := metricValue(t, metrics, "serve_journal_replayed_total"); n != 1 {
		t.Errorf("serve_journal_replayed_total = %d, want 1", n)
	}
	if n := metricValue(t, metrics, "serve_sweeps_resumed_total"); n != 1 {
		t.Errorf("serve_sweeps_resumed_total = %d, want 1", n)
	}
	// Checkpointed lanes came back as store reads, not simulations: the
	// revived daemon simulated at most the lanes the kill lost.
	if sims := metricValue(t, metrics, "serve_simulations_total"); sims > int64(totalLanes-checkpointed) {
		t.Errorf("revived daemon simulated %d lanes, want <= %d (%d of %d were checkpointed)",
			sims, totalLanes-checkpointed, checkpointed, totalLanes)
	}

	// IDs stay dense across the crash: the next admission is job-2, and
	// the journal holds exactly jobs 1..N with no duplicates.
	if id := submitJSON(t, base+"/v1/run", `{"app":"mcf"}`); id != "job-2" {
		t.Errorf("post-recovery admission = %s, want job-2", id)
	}
	waitDone(t, base, "job-2", 180*time.Second)
	sigkill(t, revived)
	jobs, maxSeq, err := journal.Replay(jnlDir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, js := range jobs {
		if seen[js.Seq] {
			t.Errorf("duplicate journaled sequence %d", js.Seq)
		}
		seen[js.Seq] = true
		if js.Seq == 0 || js.Seq > maxSeq {
			t.Errorf("job %s sequence %d outside [1, %d]", js.ID, js.Seq, maxSeq)
		}
	}
	if len(jobs) != 2 || maxSeq != 2 {
		t.Errorf("journal holds %d jobs, maxSeq %d; want 2 dense jobs", len(jobs), maxSeq)
	}
}

// killMidSweep boots a victim daemon over storeDir and jnlDir, submits
// gateSweep and SIGKILLs the daemon once at least one of its
// totalLanes lanes is checkpointed and at least one is still missing.
// It returns the number checkpointed, or 0 when the sweep settled
// before that (the daemon is killed either way).
func killMidSweep(t *testing.T, storeDir, jnlDir string, totalLanes int) int {
	t.Helper()
	victim, victimBase := startDaemon(t, "-addr", "127.0.0.1:0", "-workers", "1",
		"-records", "2000", "-store-dir", storeDir, "-journal-dir", jnlDir)
	defer sigkill(t, victim)
	if id := submitJSON(t, victimBase+"/v1/sweep", gateSweep); id != "job-1" {
		t.Fatalf("victim sweep admitted as %s, want job-1", id)
	}
	killDeadline := time.Now().Add(180 * time.Second)
	for {
		jobs, _, err := journal.Replay(jnlDir) // read-only: safe on a live journal
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) == 1 {
			if jobs[0].Settled() {
				return 0
			}
			if n := len(jobs[0].Lanes); n >= 1 && n < totalLanes {
				return n
			}
		}
		if time.Now().After(killDeadline) {
			t.Fatal("no lane checkpoint appeared within 180s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJournalDirUnwritable: a -journal-dir that cannot be created (a
// path through a regular file, which fails even for root) is a startup
// error naming the path — mirroring the tracegen -o convention.
func TestJournalDirUnwritable(t *testing.T) {
	dir := t.TempDir()
	file := dir + "/occupied"
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := file + "/journal"
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0",
		"-store-dir", t.TempDir(), "-journal-dir", bad}, io.Discard)
	if err == nil {
		t.Fatal("run accepted an unwritable -journal-dir")
	}
	if !strings.Contains(err.Error(), bad) {
		t.Errorf("error %q does not name the journal path %q", err, bad)
	}
}

// TestJournalDirIncompatible: a journal directory written by some other
// (or future) format version refuses to start, naming the path, instead
// of silently clobbering it.
func TestJournalDirIncompatible(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/00000001.wal", []byte("SCAS\x01\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0",
		"-store-dir", t.TempDir(), "-journal-dir", dir}, io.Discard)
	if err == nil {
		t.Fatal("run accepted an incompatible journal")
	}
	if !strings.Contains(err.Error(), dir) {
		t.Errorf("error %q does not name the journal path %q", err, dir)
	}
	if !strings.Contains(err.Error(), "incompatible") {
		t.Errorf("error %q does not say incompatible", err)
	}
}

// TestJournalRequiresStoreDir: the journal's checkpoints and result
// digests point into the store; configuring one without the other is a
// misconfiguration caught at startup.
func TestJournalRequiresStoreDir(t *testing.T) {
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0",
		"-journal-dir", t.TempDir()}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-store-dir") {
		t.Fatalf("run() = %v, want an error demanding -store-dir", err)
	}
}
