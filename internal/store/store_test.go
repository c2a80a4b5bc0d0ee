package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hfxmd/internal/trace"
)

func counter(t *testing.T, reg *trace.Registry, name string) int64 {
	t.Helper()
	return reg.Counter(name).Value()
}

func openTest(t *testing.T, dir string, mut ...func(*Options)) *Store {
	t.Helper()
	opts := Options{Dir: dir, Registry: trace.NewRegistry()}
	for _, m := range mut {
		m(&opts)
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir())
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%03d", i)
		if err := s.Put(key, []byte(fmt.Sprintf("value-%03d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%03d", i)
		v, ok := s.Get(key)
		if !ok || string(v) != fmt.Sprintf("value-%03d", i) {
			t.Fatalf("Get(%s) = %q, %v", key, v, ok)
		}
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("Get(absent) hit")
	}
	if got := counter(t, s.Registry(), "store.misses"); got != 1 {
		t.Fatalf("store.misses = %d, want 1", got)
	}
}

func TestRebootRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	reg := trace.NewRegistry()
	s, err := Open(Options{Dir: dir, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("key-%d", i)
		val := bytes.Repeat([]byte{byte(i)}, 100+i)
		want[key] = val
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite one key: last record must win at reboot.
	want["key-3"] = []byte("rewritten")
	if err := s.Put("key-3", want["key-3"]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir)
	s2.DropHot() // force the disk path
	for key, val := range want {
		got, ok := s2.Get(key)
		if !ok || !bytes.Equal(got, val) {
			t.Fatalf("after reboot Get(%s) = %q, %v; want %q", key, got, ok, val)
		}
	}
	if hits := counter(t, s2.Registry(), "store.disk_hits"); hits != int64(len(want)) {
		t.Fatalf("disk_hits = %d, want %d", hits, len(want))
	}
	if promos := counter(t, s2.Registry(), "store.promotions"); promos != int64(len(want)) {
		t.Fatalf("promotions = %d, want %d", promos, len(want))
	}
	// Promoted entries now hit the hot tier.
	for key := range want {
		if _, ok := s2.Get(key); !ok {
			t.Fatalf("post-promotion Get(%s) missed", key)
		}
	}
	if hh := counter(t, s2.Registry(), "store.hot_hits"); hh != int64(len(want)) {
		t.Fatalf("hot_hits = %d, want %d", hh, len(want))
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, func(o *Options) { o.SegmentBytes = 1 << 10 })
	val := bytes.Repeat([]byte("x"), 200)
	for i := 0; i < 40; i++ {
		if err := s.Put(fmt.Sprintf("rot-%02d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected >=2 sealed segments, got %d", st.Segments)
	}
	if got := counter(t, s.Registry(), "store.seals"); got != st.Segments {
		t.Fatalf("store.seals = %d, want %d", got, st.Segments)
	}
	// Sealed files exist with their immutable names; refs still resolve.
	for n := int64(0); n < st.Segments; n++ {
		if _, err := os.Stat(filepath.Join(dir, segName(n))); err != nil {
			t.Fatalf("sealed segment %d missing: %v", n, err)
		}
	}
	s.DropHot()
	for i := 0; i < 40; i++ {
		if v, ok := s.Get(fmt.Sprintf("rot-%02d", i)); !ok || !bytes.Equal(v, val) {
			t.Fatalf("post-rotation Get(rot-%02d) failed", i)
		}
	}
	s.Close()

	// Reboot re-lists sealed segments and continues numbering.
	s2 := openTest(t, dir, func(o *Options) { o.SegmentBytes = 1 << 10 })
	s2.DropHot()
	for i := 0; i < 40; i++ {
		if _, ok := s2.Get(fmt.Sprintf("rot-%02d", i)); !ok {
			t.Fatalf("reboot after rotation lost rot-%02d", i)
		}
	}
	if err := s2.Put("post-reboot", val); err != nil {
		t.Fatal(err)
	}
	if s2.Stats().Segments < st.Segments {
		t.Fatal("segment numbering regressed after reboot")
	}
}

func TestTornTailTruncatedAtBoot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Registry: trace.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("intact", []byte("survives")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash mid-append: a frame header promising more bytes
	// than the file holds.
	active := filepath.Join(dir, activeName)
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := frameRecord("torn-key", bytes.Repeat([]byte("y"), 500))
	if _, err := f.Write(torn[:len(torn)-100]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(active)

	s2 := openTest(t, dir)
	if tb := counter(t, s2.Registry(), "store.torn_tail_bytes"); tb != int64(len(torn)-100) {
		t.Fatalf("torn_tail_bytes = %d, want %d", tb, len(torn)-100)
	}
	after, _ := os.Stat(active)
	if after.Size() >= before.Size() {
		t.Fatalf("active not truncated: %d -> %d", before.Size(), after.Size())
	}
	s2.DropHot()
	if v, ok := s2.Get("intact"); !ok || string(v) != "survives" {
		t.Fatalf("intact record lost after torn-tail truncation: %q, %v", v, ok)
	}
	if _, ok := s2.Get("torn-key"); ok {
		t.Fatal("torn record must not be indexed")
	}
	// Appending after truncation keeps the file scannable.
	if err := s2.Put("after-crash", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openTest(t, dir)
	s3.DropHot()
	for _, key := range []string{"intact", "after-crash"} {
		if _, ok := s3.Get(key); !ok {
			t.Fatalf("%s lost after post-crash append + reboot", key)
		}
	}
}

func TestCorruptRecordSkippedAndCounted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Registry: trace.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b", "c"} {
		if err := s.Put(key, bytes.Repeat([]byte(key), 64)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Flip one payload byte of record "b" (the middle record): its frame
	// length stays intact, so the scanner must skip it and still index
	// "a" and "c".
	active := filepath.Join(dir, activeName)
	b, err := os.ReadFile(active)
	if err != nil {
		t.Fatal(err)
	}
	recLen := len(frameRecord("a", bytes.Repeat([]byte("a"), 64)))
	// Offset of b's payload: magic + record a + frame header + klen+key.
	off := len(segMagic) + recLen + 8 + 2 + 1 + 10
	b[off] ^= 0xff
	if err := os.WriteFile(active, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir)
	if got := counter(t, s2.Registry(), "store.corrupt_records"); got != 1 {
		t.Fatalf("store.corrupt_records = %d, want 1", got)
	}
	s2.DropHot()
	for _, key := range []string{"a", "c"} {
		if v, ok := s2.Get(key); !ok || !bytes.Equal(v, bytes.Repeat([]byte(key), 64)) {
			t.Fatalf("record %q lost around corrupt sibling", key)
		}
	}
	if _, ok := s2.Get("b"); ok {
		t.Fatal("corrupt record must not be served")
	}
}

func TestHotTierByteBudget(t *testing.T) {
	s := openTest(t, "", func(o *Options) { o.HotBytes = 1 << 10 })
	val := bytes.Repeat([]byte("z"), 200)
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("hot-%d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.HotBytes > st.HotBudget {
		t.Fatalf("hot bytes %d exceed budget %d", st.HotBytes, st.HotBudget)
	}
	if ev := counter(t, s.Registry(), "store.hot_evictions"); ev == 0 {
		t.Fatal("expected hot-tier evictions under a 1 KiB budget")
	}
	// Memory-only store: evicted entries are gone; recent ones are hot.
	if _, ok := s.Get("hot-0"); ok {
		t.Fatal("hot-0 should have been evicted")
	}
	if _, ok := s.Get("hot-9"); !ok {
		t.Fatal("hot-9 should be resident")
	}
	// An entry larger than the whole budget is never admitted.
	if err := s.Put("huge", bytes.Repeat([]byte("h"), 4<<10)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("huge"); ok {
		t.Fatal("over-budget entry must not be admitted")
	}
}

func TestOversizeHotEntryStillOnDisk(t *testing.T) {
	s := openTest(t, t.TempDir(), func(o *Options) { o.HotBytes = 256 })
	big := bytes.Repeat([]byte("B"), 2048)
	if err := s.Put("big", big); err != nil {
		t.Fatal(err)
	}
	// Too big for the hot tier, but the disk tier holds it.
	if v, ok := s.Get("big"); !ok || !bytes.Equal(v, big) {
		t.Fatal("oversize entry must be served from disk")
	}
	if dh := counter(t, s.Registry(), "store.disk_hits"); dh != 1 {
		t.Fatalf("disk_hits = %d, want 1", dh)
	}
}

func TestContainsDoesNotPromote(t *testing.T) {
	s := openTest(t, t.TempDir())
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.DropHot()
	if !s.Contains("k") {
		t.Fatal("Contains missed a disk-resident key")
	}
	if hh := counter(t, s.Registry(), "store.hot_hits"); hh != 0 {
		t.Fatal("Contains must not touch hit counters")
	}
	if s.Stats().HotEntries != 0 {
		t.Fatal("Contains must not promote")
	}
	if s.Contains("absent") {
		t.Fatal("Contains(absent)")
	}
}

func TestConcurrentGetPutPromote(t *testing.T) {
	s := openTest(t, t.TempDir(), func(o *Options) {
		o.HotBytes = 4 << 10 // small: forces eviction + re-promotion churn
		o.SegmentBytes = 8 << 10
	})
	const (
		workers = 8
		keys    = 32
		rounds  = 60
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				key := fmt.Sprintf("ck-%02d", (w*7+r)%keys)
				switch r % 3 {
				case 0:
					val := bytes.Repeat([]byte{byte(w)}, 64+r)
					if err := s.Put(key, val); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				case 1:
					if v, ok := s.Get(key); ok && len(v) == 0 {
						t.Errorf("Get(%s) returned empty payload", key)
						return
					}
				case 2:
					s.Contains(key)
					if r%12 == 2 {
						s.DropHot() // force promotion churn
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Every written key must be resolvable afterwards.
	s.DropHot()
	for i := 0; i < keys; i++ {
		if _, ok := s.Get(fmt.Sprintf("ck-%02d", i)); !ok {
			t.Fatalf("ck-%02d lost after concurrent churn", i)
		}
	}
}

func TestMatrixCodecRoundTrip(t *testing.T) {
	n := 7
	data := make([]float64, n*n)
	for i := range data {
		data[i] = float64(i) * 0.1234567890123456
	}
	data[3] = -0.0 // bit pattern must survive
	b := EncodeMatrix(n, data)
	n2, got, err := DecodeMatrix(b)
	if err != nil || n2 != n {
		t.Fatalf("DecodeMatrix: n=%d err=%v", n2, err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("element %d: %v != %v", i, got[i], data[i])
		}
	}
	if _, _, err := DecodeMatrix(b[:10]); err == nil {
		t.Fatal("truncated matrix payload must not decode")
	}
	if _, _, err := DecodeMatrix(append([]byte("XXXXXXXX"), b[8:]...)); err == nil {
		t.Fatal("bad magic must not decode")
	}
}

func TestMemoryOnlyStore(t *testing.T) {
	s := openTest(t, "")
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("k"); !ok || string(v) != "v" {
		t.Fatal("memory-only round trip failed")
	}
	s.DropHot()
	if _, ok := s.Get("k"); ok {
		t.Fatal("memory-only store has no disk tier to fall back to")
	}
	if s.Dir() != "" {
		t.Fatal("memory-only Dir() must be empty")
	}
}
