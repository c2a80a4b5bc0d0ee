package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestJobJournalSubmitFinishRoundTrip pins the journal's core contract:
// submits without a matching finish survive a close/reopen, in submit
// order, and finished jobs are struck out.
func TestJobJournalSubmitFinishRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	jl, err := openJobJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []JobRequest{
		{Kind: KindScreen, System: "h2"},
		{Kind: KindSCF, System: "water"},
		{Kind: KindBuildJK, System: "lih"},
	}
	for i := range reqs {
		if _, err := jl.submit(jobID(t, i+1), &reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := jl.finish(jobID(t, 2)); err != nil {
		t.Fatal(err)
	}
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}

	jl2, err := openJobJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.close()
	out := jl2.snapshotOutstanding()
	if len(out) != 2 {
		t.Fatalf("want 2 outstanding, got %d", len(out))
	}
	if out[0].ID != jobID(t, 1) || out[0].Req.System != "h2" {
		t.Fatalf("first outstanding = %+v", out[0])
	}
	if out[1].ID != jobID(t, 3) || out[1].Req.Kind != KindBuildJK {
		t.Fatalf("second outstanding = %+v", out[1])
	}
}

func jobID(t *testing.T, n int) string {
	t.Helper()
	return fmt.Sprintf("job-%06d", n)
}

// TestJobJournalTornTailDiscarded writes a torn half-record at the tail
// and checks it is discarded on reopen, truncated from the file, and
// that appends after the reopen are durable.
func TestJobJournalTornTailDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	jl, err := openJobJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	req := JobRequest{Kind: KindScreen, System: "h2"}
	if _, err := jl.submit("job-000001", &req); err != nil {
		t.Fatal(err)
	}
	// Tear: append only half of a framed record, as if the process died
	// mid-write.
	full, err := frameRecord(journalRecord{Op: "submit", ID: "job-000002", Req: &req})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jl.f.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	jl.close()

	jl2, err := openJobJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if out := jl2.snapshotOutstanding(); len(out) != 1 || out[0].ID != "job-000001" {
		t.Fatalf("torn record leaked into outstanding: %+v", out)
	}
	// The tail must have been truncated, or this append would hide
	// behind the torn bytes forever.
	if _, err := jl2.submit("job-000003", &req); err != nil {
		t.Fatal(err)
	}
	jl2.close()
	jl3, err := openJobJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl3.close()
	if out := jl3.snapshotOutstanding(); len(out) != 2 || out[1].ID != "job-000003" {
		t.Fatalf("post-truncation append lost: %+v", out)
	}
}

// TestServerRestoresJournaledJobsOnBoot is the crash-restart acceptance
// test: a journal holding submits with no finish — the on-disk state a
// dead hfxd leaves behind — must be re-enqueued on boot, run to
// completion, fill the result cache, and be struck from the journal.
func TestServerRestoresJournaledJobsOnBoot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")

	// Simulate the dead server's journal: two accepted jobs, one of
	// which also finished.
	jl, err := openJobJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	pending := JobRequest{Kind: KindScreen, System: "h2"}
	doneReq := JobRequest{Kind: KindScreen, System: "water"}
	if _, err := jl.submit("job-000007", &pending); err != nil {
		t.Fatal(err)
	}
	if _, err := jl.submit("job-000008", &doneReq); err != nil {
		t.Fatal(err)
	}
	if _, _, err := jl.finish("job-000008"); err != nil {
		t.Fatal(err)
	}
	jl.close()

	// Boot: the pending job replays before the workers start.
	s := mustNew(t, Config{Workers: 1, JournalPath: path})
	if got := s.reg.Counter("journal.replayed").Value(); got != 1 {
		t.Fatalf("journal.replayed = %d, want 1", got)
	}
	waitCounter(t, s, "jobs.done", 1)

	// The replayed result must be servable from the cache without
	// touching a builder.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	res := submit(t, ts, JobRequest{Kind: KindScreen, System: "h2"})
	if !res.CacheHit {
		t.Fatal("replayed job's result not in the cache")
	}
	if res.Screen == nil || res.Screen.TotalPairs == 0 {
		t.Fatalf("replayed screen result empty: %+v", res)
	}

	// A cache hit answers from its own ID sequence — it must not consume
	// a job ID, which would leave a journal-less gap in the job-NNN space.
	if !strings.HasPrefix(res.ID, "hit-") {
		t.Fatalf("cache-hit ID %s, want hit- form", res.ID)
	}
	// Job-ID allocation must have advanced past the replayed IDs: a
	// genuinely new job may not collide with the replayed range.
	fresh := submit(t, ts, JobRequest{Kind: KindScreen, System: "lih"})
	if fresh.CacheHit || fresh.ID <= "job-000007" {
		t.Fatalf("live job ID %s collides with replayed range", fresh.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// After the drain the journal must hold no outstanding work.
	jl2, err := openJobJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.close()
	if out := jl2.snapshotOutstanding(); len(out) != 0 {
		t.Fatalf("journal still holds %d outstanding after drain: %+v", len(out), out)
	}
}

// TestServerJournalsLiveJobs checks the steady-state write path: a job
// accepted over HTTP lands a submit record and, once done, a finish
// record, leaving nothing outstanding.
func TestServerJournalsLiveJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	s := mustNew(t, Config{Workers: 1, JournalPath: path})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res := submit(t, ts, JobRequest{Kind: KindScreen, System: "h2"})
	if res.State != StateDone {
		t.Fatalf("job state %s: %s", res.State, res.Error)
	}
	if got := s.reg.Counter("journal.appends").Value(); got < 2 {
		t.Fatalf("journal.appends = %d, want >= 2 (submit + finish)", got)
	}
	if s.reg.Counter("journal.append_errors").Value() != 0 {
		t.Fatal("journal append errors recorded")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	jl, err := openJobJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.close()
	if out := jl.snapshotOutstanding(); len(out) != 0 {
		t.Fatalf("outstanding after clean run: %+v", out)
	}
}

// TestJobJournalRejectsForeignFile pins the magic check.
func TestJobJournalRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	if err := os.WriteFile(path, []byte("not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openJobJournal(path); err == nil || !strings.Contains(err.Error(), "not a job journal") {
		t.Fatalf("want magic error, got %v", err)
	}
}

// waitCounter polls a registry counter until it reaches want.
func waitCounter(t *testing.T, s *Server, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if s.reg.Counter(name).Value() >= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("counter %s never reached %d (at %d)", name, want, s.reg.Counter(name).Value())
}

// FuzzScanRecords feeds arbitrary bytes to the journal decoder. It must
// never panic, its valid prefix must lie inside the input, and whatever
// it accepts must survive re-framing: the decoded records, framed again
// and scanned again, come back unchanged and fill the re-framed bytes
// exactly.
func FuzzScanRecords(f *testing.F) {
	frame := func(recs ...journalRecord) []byte {
		var b []byte
		for _, r := range recs {
			fr, err := frameRecord(r)
			if err != nil {
				f.Fatal(err)
			}
			b = append(b, fr...)
		}
		return b
	}
	req := JobRequest{Kind: KindBuildJK, System: "water", Screen: 1e-8}
	valid := frame(
		journalRecord{Op: "submit", ID: "job-000001", Req: &req},
		journalRecord{Op: "finish", ID: "job-000001"},
		journalRecord{Op: "submit", ID: "job-000002"},
	)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	badCRC := append([]byte(nil), valid...)
	badCRC[4] ^= 0xff
	f.Add(badCRC)
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge, ^uint32(0)) // size overflows the buffer
	f.Add(huge)

	f.Fuzz(func(t *testing.T, b []byte) {
		recs, n := scanRecords(b)
		if n < 0 || n > len(b) {
			t.Fatalf("valid length %d outside [0, %d]", n, len(b))
		}
		var again []byte
		for _, r := range recs {
			fr, err := frameRecord(r)
			if err != nil {
				t.Fatal(err)
			}
			again = append(again, fr...)
		}
		back, m := scanRecords(again)
		if m != len(again) {
			t.Fatalf("re-framed records scan %d of %d bytes", m, len(again))
		}
		if !reflect.DeepEqual(back, recs) {
			t.Fatalf("re-framed records decode differently:\n got %+v\nwant %+v", back, recs)
		}
	})
}
