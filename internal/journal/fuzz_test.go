package journal

import (
	"os"
	"reflect"
	"testing"
)

// FuzzJournalReplay feeds arbitrary bytes to the segment reader as a
// journal left behind by a crashed daemon. Three properties must hold:
// Replay and Open never panic; whatever Open accepts it normalises (the
// torn tail is gone, so a second Open replays the identical state); and
// records appended after recovery are readable alongside the survivors.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(segHeader())
	f.Add([]byte("SJNL"))                 // torn header
	f.Add([]byte("SCAS\x01\x00\x00\x00")) // a store blob, not a journal
	seed := segHeader()
	for _, rec := range []Record{
		{Type: TypeAdmitted, ID: "job-1", Seq: 1, Kind: "sweep", Request: []byte(`{"experiments":["fig6"]}`)},
		{Type: TypeStarted, ID: "job-1"},
		{Type: TypeLane, ID: "job-1", Digest: "aaaa"},
		{Type: TypeFinished, ID: "job-1", Status: "done", Digest: "bbbb"},
		{Type: TypeWatermark, Seq: 7},
	} {
		fr, err := encodeFrame(rec)
		if err != nil {
			f.Fatal(err)
		}
		seed = append(seed, fr...)
	}
	f.Add(seed)
	f.Add(append(append([]byte{}, seed...), 0xff, 0x13)) // torn tail
	f.Add(seed[:len(seed)-3])                            // torn mid-frame

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := segPath(dir, 1)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}

		jobs, maxSeq, rerr := Replay(dir)
		j, oerr := Open(dir, 0)
		if (rerr == nil) != (oerr == nil) {
			t.Fatalf("Replay err=%v but Open err=%v", rerr, oerr)
		}
		if oerr != nil {
			return // incompatible header: rejected, nothing was modified
		}
		if !reflect.DeepEqual(jobs, j.Jobs()) || maxSeq != j.MaxSeq() {
			t.Fatalf("Replay state %v/%d disagrees with Open state %v/%d",
				jobs, maxSeq, j.Jobs(), j.MaxSeq())
		}
		for _, js := range jobs {
			if js.ID == "fuzz-post" {
				// The fuzzer forged our probe ID; re-admission would reset
				// it in place and the expected-state math below would lie.
				j.Close()
				return
			}
		}
		if err := j.Append(Record{Type: TypeAdmitted, ID: "fuzz-post", Seq: maxSeq + 1}, true); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		// Recovery normalised the segment: a second Open sees the same
		// jobs plus the post-recovery record, and truncates nothing.
		j2, err := Open(dir, 0)
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		defer j2.Close()
		if st := j2.Stats(); st.Truncations != 0 {
			t.Fatalf("reopen truncated a recovered journal: %+v", st)
		}
		want := append(append([]JobState{}, jobs...),
			JobState{ID: "fuzz-post", Seq: maxSeq + 1})
		if got := j2.Jobs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("reopen state %v, want %v", got, want)
		}
	})
}
