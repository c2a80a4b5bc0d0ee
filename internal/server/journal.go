package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"hfxmd/internal/ckpt"
)

// The crash-safe job journal. hfxd's HTTP API is synchronous — a client
// holds its request open until the job finishes — but an accepted job
// represents real promised work: it may be queued behind minutes of
// other jobs, and its result is what fills the LRU cache other clients
// hit. If the daemon dies, every accepted-but-unfinished job would
// silently vanish. The journal makes admission durable: one framed
// record per accepted job (the full request) and one per finished job;
// on boot the submits without a matching finish are re-enqueued and run
// to completion, landing their results in the cache exactly as if the
// crash had not happened.
//
// On-disk format: the magic "HFXDJNL\x01" followed by records in the
// ckpt framing (ckpt.Frame), size uint32 LE | crc32(payload) IEEE |
// payload (JSON). A torn tail — a crash mid-append — fails the size or
// CRC check; the file is truncated back to its valid prefix before
// reopening for append, so later records can never hide behind torn
// bytes. Compaction (boot, and periodically once enough finish records
// accumulate) rewrites the file with only the outstanding submits via
// ckpt.AtomicWriteFile.
const jnlMagic = "HFXDJNL\x01"

// journalRecord is one journal entry.
type journalRecord struct {
	// Op is "submit" (Req holds the accepted request) or "finish".
	Op string `json:"op"`
	// ID is the server-assigned job ID the two records share.
	ID string `json:"id"`
	// Req is the normalized accepted request (submit records only).
	Req *JobRequest `json:"req,omitempty"`
}

// compactEvery is the finish-record count that triggers an in-flight
// compaction, bounding journal growth on a long-lived daemon.
const compactEvery = 1024

// jobJournal is the append handle plus the in-memory outstanding set
// (submits without a finish), which is what compaction rewrites.
type jobJournal struct {
	mu          sync.Mutex
	f           *os.File
	path        string
	outstanding map[string]*JobRequest
	order       []string // outstanding IDs in submit order
	finishes    int      // finish records since the last compaction
}

// frameRecord encodes one record with its size+CRC header.
func frameRecord(rec journalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return ckpt.Frame(payload), nil
}

// scanRecords walks the framed records in b (which excludes the magic)
// and returns the decoded valid prefix plus its byte length.
func scanRecords(b []byte) ([]journalRecord, int) {
	var recs []journalRecord
	off := 0
	for {
		payload, n, ok := ckpt.NextFrame(b[off:])
		if n == 0 || !ok {
			break // torn tail
		}
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			break
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, off
}

// openJobJournal opens (or creates) the journal at path, truncates any
// torn tail, and returns the handle with its outstanding set rebuilt
// from the valid records.
func openJobJournal(path string) (*jobJournal, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	jl := &jobJournal{path: path, outstanding: map[string]*JobRequest{}}
	b, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		if err := jl.rewrite(nil); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, err
	default:
		if len(b) < len(jnlMagic) || string(b[:len(jnlMagic)]) != jnlMagic {
			return nil, fmt.Errorf("server: %s is not a job journal", path)
		}
		recs, valid := scanRecords(b[len(jnlMagic):])
		finished := map[string]bool{}
		for _, r := range recs {
			if r.Op == "finish" {
				finished[r.ID] = true
			}
		}
		for _, r := range recs {
			if r.Op == "submit" && r.Req != nil && !finished[r.ID] {
				if _, dup := jl.outstanding[r.ID]; !dup {
					jl.outstanding[r.ID] = r.Req
					jl.order = append(jl.order, r.ID)
				}
			}
		}
		// Truncate the torn tail before reopening for append, so new
		// records never land beyond bytes the scanner cannot reach.
		if err := os.Truncate(path, int64(len(jnlMagic)+valid)); err != nil {
			return nil, err
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		jl.f = f
	}
	return jl, nil
}

// rewrite atomically replaces the journal with the given outstanding
// submit records and reopens it for append.
func (jl *jobJournal) rewrite(ids []string) error {
	buf := []byte(jnlMagic)
	for _, id := range ids {
		fr, err := frameRecord(journalRecord{Op: "submit", ID: id, Req: jl.outstanding[id]})
		if err != nil {
			return err
		}
		buf = append(buf, fr...)
	}
	if err := ckpt.AtomicWriteFile(filepath.Dir(jl.path), filepath.Base(jl.path), buf); err != nil {
		return err
	}
	if jl.f != nil {
		jl.f.Close()
	}
	var err error
	if jl.f, err = os.OpenFile(jl.path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return err
	}
	jl.finishes = 0
	return nil
}

// appendLocked writes one fsynced record; callers hold jl.mu.
func (jl *jobJournal) appendLocked(rec journalRecord) (int, error) {
	buf, err := frameRecord(rec)
	if err != nil {
		return 0, err
	}
	if _, err := jl.f.Write(buf); err != nil {
		return 0, err
	}
	return len(buf), jl.f.Sync()
}

// submit records an accepted job.
func (jl *jobJournal) submit(id string, req *JobRequest) (int, error) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if _, dup := jl.outstanding[id]; !dup {
		jl.outstanding[id] = req
		jl.order = append(jl.order, id)
	}
	return jl.appendLocked(journalRecord{Op: "submit", ID: id, Req: req})
}

// finish records a terminal job state and compacts once enough finish
// records have accumulated. It reports whether a compaction ran.
func (jl *jobJournal) finish(id string) (int, bool, error) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if _, ok := jl.outstanding[id]; ok {
		delete(jl.outstanding, id)
		for i, oid := range jl.order {
			if oid == id {
				jl.order = append(jl.order[:i], jl.order[i+1:]...)
				break
			}
		}
	}
	n, err := jl.appendLocked(journalRecord{Op: "finish", ID: id})
	if err != nil {
		return n, false, err
	}
	jl.finishes++
	if jl.finishes >= compactEvery {
		return n, true, jl.rewrite(jl.order)
	}
	return n, false, nil
}

// compact rewrites the journal down to the outstanding submits.
func (jl *jobJournal) compact() error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.rewrite(jl.order)
}

// snapshotOutstanding returns the outstanding (id, request) pairs in
// submit order.
func (jl *jobJournal) snapshotOutstanding() []journalRecord {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	recs := make([]journalRecord, 0, len(jl.order))
	for _, id := range jl.order {
		recs = append(recs, journalRecord{Op: "submit", ID: id, Req: jl.outstanding[id]})
	}
	return recs
}

// close releases the file handle.
func (jl *jobJournal) close() error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f == nil {
		return nil
	}
	err := jl.f.Close()
	jl.f = nil
	return err
}
