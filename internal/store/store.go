// Package store implements the tiered, content-addressed result and
// ERI store shared across the hfxd fleet: a byte-budgeted in-memory
// LRU hot tier in front of an append-only on-disk segment store, with
// an in-memory index rebuilt by scanning segment records at boot.
//
// Keys are canonical content hashes (the server's result-cache key,
// the ERI spill layout hash, the density prefix key), so any process
// pointing at the same directory resolves the same key to the same
// bytes: a fleet restart answers repeated jobs from the disk tier with
// zero builder work, and a cold builder warms its ERI slabs from a
// neighbour's spill instead of recomputing ~300 ms of integrals.
//
// Disk layout: immutable sealed segments (seg-%08d.seg) plus one
// active append target (seg-active.tmp). Records are framed size+CRC
// exactly like the ckpt journal; sealing is the ckpt temp+fsync+rename
// dance (the active file *is* the temp file), so a crash never leaves
// a half-sealed segment. At boot the index is rebuilt by scanning
// every segment: CRC-corrupt records are skipped and counted
// (store.corrupt_records), and the active file's torn tail — the mark
// of an interrupted append — is truncated before appending resumes.
package store

import (
	"os"
	"path/filepath"
	"sync"

	"hfxmd/internal/ckpt"
	"hfxmd/internal/trace"
)

// Options configures a Store. The zero value is a memory-only store
// with the default hot budget.
type Options struct {
	// Dir is the segment directory (created if absent). Empty disables
	// the disk tier: the store degenerates to the hot LRU.
	Dir string
	// HotBytes is the hot-tier byte budget (default 64 MiB). Zero or
	// negative disables the hot tier — every hit is a disk hit.
	HotBytes int64
	// SegmentBytes is the seal threshold: when the active segment
	// exceeds it, the segment is fsynced and atomically renamed to its
	// immutable name and a fresh active file is started (default 16 MiB).
	SegmentBytes int64
	// Registry receives the store.* counters and gauges (optional).
	Registry *trace.Registry
}

// ref locates one record's value on disk. Files are addressed through
// the file table so sealing (a rename) retargets every ref at once.
type ref struct {
	file int32
	off  int64
	len  int32
}

// Store is the two-tier content-addressed store. All methods are safe
// for concurrent use; a Store may be shared by every server instance
// of an in-process fleet.
type Store struct {
	mu     sync.Mutex
	dir    string
	segCap int64

	hot   *hotLRU
	idx   map[string]ref
	files []string // file table: ref.file → path

	active     *os.File
	activeID   int32
	activeSize int64
	nextSeg    int64

	diskBytes int64
	reg       *trace.Registry
}

// DefaultHotBytes is the hot-tier budget when Options.HotBytes is zero.
const DefaultHotBytes = 64 << 20

// DefaultSegmentBytes is the seal threshold when Options.SegmentBytes
// is zero.
const DefaultSegmentBytes = 16 << 20

// Open builds the store: it creates the directory, scans every sealed
// segment and the active file into the index (skipping corrupt records,
// truncating the active torn tail), and reopens the active file for
// appending.
func Open(opts Options) (*Store, error) {
	if opts.HotBytes == 0 {
		opts.HotBytes = DefaultHotBytes
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Registry == nil {
		opts.Registry = trace.NewRegistry()
	}
	s := &Store{
		dir:    opts.Dir,
		segCap: opts.SegmentBytes,
		hot:    newHotLRU(opts.HotBytes),
		idx:    make(map[string]ref),
		reg:    opts.Registry,
	}
	// Pre-create the instruments the hot path touches.
	for _, c := range []string{
		"store.hot_hits", "store.hot_misses", "store.disk_hits", "store.misses",
		"store.promotions", "store.hot_evictions", "store.puts", "store.put_bytes",
		"store.seals", "store.corrupt_records", "store.torn_tail_bytes",
		"store.boot_records",
	} {
		s.reg.Counter(c)
	}
	if opts.Dir == "" {
		s.publishGauges()
		return s, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	if err := s.boot(); err != nil {
		return nil, err
	}
	s.publishGauges()
	return s, nil
}

// boot rebuilds the index from the segment files and reopens the
// active file for appending.
func (s *Store) boot() error {
	nums, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	for _, n := range nums {
		path := filepath.Join(s.dir, segName(n))
		if err := s.bootFile(path); err != nil {
			return err
		}
		s.nextSeg = n + 1
	}
	activePath := filepath.Join(s.dir, activeName)
	b, err := os.ReadFile(activePath)
	switch {
	case os.IsNotExist(err):
		return s.newActive()
	case err != nil:
		return err
	}
	res := scanSegment(b)
	s.indexScan(activePath, res)
	if res.torn {
		s.reg.Counter("store.torn_tail_bytes").Add(int64(len(b)) - res.validLen)
		if res.validLen < int64(len(segMagic)) {
			// Even the header is damaged: start the active file over.
			return s.newActive()
		}
		if err := os.Truncate(activePath, res.validLen); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(activePath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.active = f
	s.activeID = int32(len(s.files) - 1) // indexScan appended activePath
	s.activeSize = max(res.validLen, int64(len(segMagic)))
	s.diskBytes += s.activeSize
	return nil
}

// bootFile scans one sealed segment into the index.
func (s *Store) bootFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	res := scanSegment(b)
	s.indexScan(path, res)
	if res.torn {
		// A sealed segment was renamed after fsync, so a torn tail here
		// means external damage; the intact prefix is still served.
		s.reg.Counter("store.torn_tail_bytes").Add(int64(len(b)) - res.validLen)
	}
	s.diskBytes += int64(len(b))
	return nil
}

// indexScan folds one scan result into the index (last writer wins:
// segments are scanned oldest-first, the active file last).
func (s *Store) indexScan(path string, res scanResult) {
	fid := int32(len(s.files))
	s.files = append(s.files, path)
	for _, r := range res.records {
		s.idx[r.key] = ref{file: fid, off: r.off, len: r.len}
	}
	s.reg.Counter("store.boot_records").Add(int64(len(res.records)))
	s.reg.Counter("store.corrupt_records").Add(res.corrupt)
}

// newActive starts a fresh active file holding just the magic.
func (s *Store) newActive() error {
	path := filepath.Join(s.dir, activeName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	s.active = f
	s.activeID = int32(len(s.files))
	s.files = append(s.files, path)
	s.activeSize = int64(len(segMagic))
	s.diskBytes += s.activeSize
	return nil
}

// Get returns the payload for key: hot tier first, then the disk
// index; a disk hit is promoted into the hot tier. The returned slice
// is shared with the hot tier and must be treated as read-only.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.hot.get(key); ok {
		s.reg.Counter("store.hot_hits").Add(1)
		return v, true
	}
	s.reg.Counter("store.hot_misses").Add(1)
	r, ok := s.idx[key]
	if !ok {
		s.reg.Counter("store.misses").Add(1)
		return nil, false
	}
	v, err := s.readAt(r)
	if err != nil {
		// The record indexed at boot is gone or unreadable: a full miss.
		s.reg.Counter("store.misses").Add(1)
		return nil, false
	}
	s.reg.Counter("store.disk_hits").Add(1)
	s.reg.Counter("store.promotions").Add(1)
	s.reg.Counter("store.hot_evictions").Add(s.hot.put(key, v))
	s.publishGauges()
	return v, true
}

// readAt reads one value range from its segment file. The active file
// is read through its own handle-independent path: O_APPEND writers and
// ReadAt readers do not disturb each other.
func (s *Store) readAt(r ref) ([]byte, error) {
	f, err := os.Open(s.files[r.file])
	if err != nil {
		return nil, err
	}
	defer f.Close()
	v := make([]byte, r.len)
	if _, err := f.ReadAt(v, r.off); err != nil {
		return nil, err
	}
	return v, nil
}

// Put stores a payload under its content key in both tiers. The store
// takes ownership of val — callers must not modify it afterwards. With
// a disk tier, the record is durable (fsynced) when Put returns, and
// the active segment is sealed once it exceeds the size threshold.
func (s *Store) Put(key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg.Counter("store.puts").Add(1)
	s.reg.Counter("store.put_bytes").Add(int64(len(val)))
	s.reg.Counter("store.hot_evictions").Add(s.hot.put(key, val))
	if s.active == nil {
		s.publishGauges()
		return nil
	}
	rec := frameRecord(key, val)
	if _, err := s.active.Write(rec); err != nil {
		return err
	}
	if err := s.active.Sync(); err != nil {
		return err
	}
	// Value offset within the record: frame header (8) + klen (2) + key.
	s.idx[key] = ref{
		file: s.activeID,
		off:  s.activeSize + 8 + 2 + int64(len(key)),
		len:  int32(len(val)),
	}
	s.activeSize += int64(len(rec))
	s.diskBytes += int64(len(rec))
	if s.activeSize >= s.segCap {
		if err := s.seal(); err != nil {
			return err
		}
	}
	s.publishGauges()
	return nil
}

// seal rotates the active segment: fsync, close, atomic rename to the
// immutable seg-N name, directory fsync, fresh active file. Refs into
// the sealed segment keep working through the file table.
func (s *Store) seal() error {
	if err := s.active.Sync(); err != nil {
		return err
	}
	if err := s.active.Close(); err != nil {
		return err
	}
	sealed := filepath.Join(s.dir, segName(s.nextSeg))
	if err := os.Rename(filepath.Join(s.dir, activeName), sealed); err != nil {
		return err
	}
	ckpt.SyncDir(s.dir)
	s.files[s.activeID] = sealed
	s.nextSeg++
	s.reg.Counter("store.seals").Add(1)
	return s.newActive()
}

// Contains reports whether either tier holds the key, without touching
// the hot tier's LRU order — the probe behind cache-affinity routing.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hot.contains(key) {
		return true
	}
	_, ok := s.idx[key]
	return ok
}

// DropHot clears the hot tier so the next Get of every key exercises
// the disk path — the hook the latency benchmarks and crash tests use
// to re-sample disk-warm hits without a process restart.
func (s *Store) DropHot() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hot.drop()
	s.publishGauges()
}

// Stats is a point-in-time snapshot of both tiers.
type Stats struct {
	HotBytes    int64
	HotEntries  int
	HotBudget   int64
	DiskBytes   int64
	DiskEntries int
	Segments    int64
}

// Stats snapshots both tiers.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		HotBytes:    s.hot.bytes,
		HotEntries:  s.hot.len(),
		HotBudget:   s.hot.budget,
		DiskBytes:   s.diskBytes,
		DiskEntries: len(s.idx),
		Segments:    s.nextSeg,
	}
}

// Dir returns the segment directory ("" for a memory-only store).
func (s *Store) Dir() string { return s.dir }

// Registry exposes the store's metrics registry.
func (s *Store) Registry() *trace.Registry { return s.reg }

// publishGauges refreshes the gauge surface. Called with mu held.
func (s *Store) publishGauges() {
	s.reg.Gauge("store.hot_bytes").Set(s.hot.bytes)
	s.reg.Gauge("store.hot_entries").Set(int64(s.hot.len()))
	s.reg.Gauge("store.disk_bytes").Set(s.diskBytes)
	s.reg.Gauge("store.disk_entries").Set(int64(len(s.idx)))
	s.reg.Gauge("store.segments").Set(s.nextSeg)
}

// Close fsyncs and releases the active file. The directory remains
// fully resumable: the next Open rescans the sealed segments and the
// (still temp-named) active file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return nil
	}
	err := s.active.Sync()
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	s.active = nil
	return err
}
