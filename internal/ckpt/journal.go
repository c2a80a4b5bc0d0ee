package ckpt

import (
	"encoding/binary"
	"os"
	"path/filepath"
)

// jrnlMagic identifies (and versions) the journal format.
const jrnlMagic = "HFXJRNL\x01"

// JournalName is the write-ahead journal filename inside a checkpoint
// directory.
const JournalName = "journal.wal"

// journal is the append-only per-step write-ahead log. Each record is a
// complete EncodeState image framed by size+CRC, so replay restores
// states bit-for-bit and a torn tail is detected by its frame.
type journal struct {
	f     *os.File
	path  string
	fsync bool
}

// openJournal opens (or creates) the journal for appending. An existing
// file is truncated back to its valid record prefix first — appending
// after a torn tail would hide every later record from replay — and a
// file with a damaged magic is rewritten from scratch: its content
// could not be trusted anyway.
func openJournal(path string, fsync bool) (*journal, error) {
	j := &journal{path: path, fsync: fsync}
	b, err := os.ReadFile(path)
	if err == nil && len(b) >= len(jrnlMagic) && string(b[:len(jrnlMagic)]) == jrnlMagic {
		if n := validPrefixLen(b); n < len(b) {
			if err := os.Truncate(path, int64(n)); err != nil {
				return nil, err
			}
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		j.f = f
		return j, nil
	}
	if err := j.reset(); err != nil {
		return nil, err
	}
	return j, nil
}

// validPrefixLen returns the byte length of the longest prefix of a
// journal image that frames only intact records.
func validPrefixLen(b []byte) int {
	off := len(jrnlMagic)
	for off+8 <= len(b) {
		size := int(binary.LittleEndian.Uint32(b[off:]))
		crc := binary.LittleEndian.Uint32(b[off+4:])
		if off+8+size > len(b) || crcIEEE(b[off+8:off+8+size]) != crc {
			break
		}
		off += 8 + size
	}
	return off
}

// reset truncates the journal back to a bare magic — called after every
// durable snapshot, which supersedes all journaled steps.
func (j *journal) reset() error {
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(jrnlMagic); err != nil {
		f.Close()
		return err
	}
	if j.fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	j.f = f
	return nil
}

// frame wraps a payload in the size+CRC journal framing.
func frame(payload []byte) []byte {
	b := make([]byte, 0, 8+len(payload))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crcIEEE(payload))
	return append(b, payload...)
}

// writeRaw appends bytes (possibly a deliberately torn prefix, for the
// fault plan) and syncs.
func (j *journal) writeRaw(b []byte) (int, error) {
	n, err := j.f.Write(b)
	if err != nil {
		return n, err
	}
	if j.fsync {
		if err := j.f.Sync(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// close releases the file handle.
func (j *journal) close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// readJournal scans a journal file and returns every valid record in
// order. Scanning stops — without error — at the first torn or
// corrupt frame: everything before it is the durable prefix. A missing
// file is an empty journal.
func readJournal(path string) ([]*MDState, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(b) < len(jrnlMagic) || string(b[:len(jrnlMagic)]) != jrnlMagic {
		return nil, nil // unreadable header: no durable records
	}
	var states []*MDState
	off := len(jrnlMagic)
	end := validPrefixLen(b)
	for off < end {
		size := int(binary.LittleEndian.Uint32(b[off:]))
		s, err := DecodeState(b[off+8 : off+8+size])
		if err != nil {
			break // framed but undecodable: treat as end of prefix
		}
		states = append(states, s)
		off += 8 + size
	}
	return states, nil
}

// journalPath returns the journal location for a checkpoint directory.
func journalPath(dir string) string { return filepath.Join(dir, JournalName) }
