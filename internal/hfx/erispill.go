package hfx

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"hfxmd/internal/integrals"
	"hfxmd/internal/screen"
)

// eriSpillMagic versions the serialized ERI cache image. Integrity is
// the store's job (CRC-framed records); the layout hash embedded right
// after the magic is what guards correctness — an image only imports
// into a builder whose admission layout is byte-for-byte the same.
const eriSpillMagic = "HFXERI\x01"

// layoutHash fingerprints everything the spill format depends on: the
// revision of the ERI kernel that computed the blocks (rev — a kernel
// change moves their last bits, and an image must replay bit for bit what
// the importer would recompute), the screening threshold eps (the
// primitive-level cut of every block is derived from it), the basis size,
// the screened shell-pair list (indices and Schwarz norms), the admission
// outcome and the per-shard slot layout. Two builders agree on the hash
// iff a slab image from one drops bit-exactly into the other.
// Deliberately independent of the density, SCF settings, and result cache
// key: the same geometry requested with a different maxIter shares spills.
func (c *eriCache) layoutHash(rev uint64, eps float64, nbasis int, pairs []screen.Pair) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	w(rev)
	w(math.Float64bits(eps))
	w(uint64(nbasis))
	w(uint64(c.budget))
	w(uint64(c.admitted))
	w(uint64(len(c.shards)))
	for i := range c.shards {
		sh := &c.shards[i]
		w(uint64(len(sh.lens)))
		for _, l := range sh.lens {
			w(uint64(l))
		}
	}
	w(uint64(len(pairs)))
	for _, p := range pairs {
		w(uint64(p.A))
		w(uint64(p.B))
		w(math.Float64bits(p.Q))
	}
	return h.Sum64()
}

// builderLayoutHash computes the spill layout hash of a builder's cache
// under this build's ERI kernel, or 0 when the builder is fully direct.
func (b *Builder) builderLayoutHash() uint64 {
	return b.layoutHashAt(integrals.KernelRevision)
}

// layoutHashAt is builderLayoutHash as a build with kernel revision rev
// would compute it.
func (b *Builder) layoutHashAt(rev uint64) uint64 {
	pl := b.pl
	if pl.cache == nil {
		return 0
	}
	return pl.cache.layoutHash(rev, pl.scr.Opts.Threshold, pl.eng.Basis.NBasis, pl.scr.Pairs)
}

// SpillKey returns the content-address of this builder's ERI cache
// image: a hash of (ERI kernel revision, screening threshold, basis size,
// shell-pair list, Schwarz norms, admission layout). Builders with equal
// keys can exchange spill images losslessly. Empty for fully direct
// builders.
func (b *Builder) SpillKey() string {
	h := b.builderLayoutHash()
	if h == 0 {
		return ""
	}
	return fmt.Sprintf("eri:%016x", h)
}

// ExportERICache serializes the resident ERI blocks (slab bytes plus
// fill map) so a future builder with the same SpillKey can warm from
// them instead of re-evaluating integrals. Returns nil when the cache
// is disabled or holds no resident blocks. Must not be called
// concurrently with BuildJK.
func (b *Builder) ExportERICache() []byte {
	pl := b.pl
	c := pl.cache
	if c == nil || c.filled.Load() == 0 {
		return nil
	}
	size := len(eriSpillMagic) + 8 + 4
	for i := range c.shards {
		sh := &c.shards[i]
		size += 4 + (len(sh.filled)+7)/8 + 8 + 8*len(sh.slab)
	}
	out := make([]byte, 0, size)
	out = append(out, eriSpillMagic...)
	out = binary.LittleEndian.AppendUint64(out, b.builderLayoutHash())
	out = binary.LittleEndian.AppendUint32(out, uint32(len(c.shards)))
	var spilled int64
	for i := range c.shards {
		sh := &c.shards[i]
		out = binary.LittleEndian.AppendUint32(out, uint32(len(sh.filled)))
		bitmap := make([]byte, (len(sh.filled)+7)/8)
		for s, f := range sh.filled {
			if f {
				bitmap[s/8] |= 1 << (s % 8)
				spilled++
			}
		}
		out = append(out, bitmap...)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(sh.slab)))
		for _, v := range sh.slab {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	pl.reg.Counter("ericache.spilled_blocks").Add(spilled)
	return out
}

// ImportERICache restores a spill image produced by ExportERICache on a
// builder with the same SpillKey. The layout hash and every structural
// dimension are verified before any slab byte is copied; a mismatch
// imports nothing and returns an error. Returns the number of blocks
// warmed. Must not be called concurrently with BuildJK.
func (b *Builder) ImportERICache(img []byte) (int64, error) {
	pl := b.pl
	c := pl.cache
	if c == nil {
		return 0, fmt.Errorf("hfx: import into a fully direct builder")
	}
	if len(img) < len(eriSpillMagic)+12 || string(img[:len(eriSpillMagic)]) != eriSpillMagic {
		return 0, fmt.Errorf("hfx: not an ERI spill image")
	}
	off := len(eriSpillMagic)
	if got, want := binary.LittleEndian.Uint64(img[off:]), b.builderLayoutHash(); got != want {
		return 0, fmt.Errorf("hfx: spill layout hash %016x, builder wants %016x", got, want)
	}
	off += 8
	if n := int(binary.LittleEndian.Uint32(img[off:])); n != len(c.shards) {
		return 0, fmt.Errorf("hfx: spill has %d shards, builder has %d", n, len(c.shards))
	}
	off += 4

	// Pass 1: validate structure end to end before touching any state.
	type shardView struct {
		bitmap []byte
		slab   []byte
	}
	views := make([]shardView, len(c.shards))
	for i := range c.shards {
		sh := &c.shards[i]
		if off+4 > len(img) {
			return 0, fmt.Errorf("hfx: truncated spill image")
		}
		nslots := int(binary.LittleEndian.Uint32(img[off:]))
		off += 4
		if nslots != len(sh.filled) {
			return 0, fmt.Errorf("hfx: shard %d has %d slots, builder has %d", i, nslots, len(sh.filled))
		}
		nb := (nslots + 7) / 8
		if off+nb+8 > len(img) {
			return 0, fmt.Errorf("hfx: truncated spill image")
		}
		views[i].bitmap = img[off : off+nb]
		off += nb
		slabLen := int(binary.LittleEndian.Uint64(img[off:]))
		off += 8
		if slabLen != len(sh.slab) {
			return 0, fmt.Errorf("hfx: shard %d slab %d floats, builder has %d", i, slabLen, len(sh.slab))
		}
		if off+8*slabLen > len(img) {
			return 0, fmt.Errorf("hfx: truncated spill image")
		}
		views[i].slab = img[off : off+8*slabLen]
		off += 8 * slabLen
	}

	// Pass 2: copy. Only slots marked filled in the image become
	// resident; a partially-warm import composes with fill-on-miss.
	var warmed, delta int64
	for i := range c.shards {
		sh := &c.shards[i]
		for f := range sh.slab {
			sh.slab[f] = math.Float64frombits(binary.LittleEndian.Uint64(views[i].slab[8*f:]))
		}
		for s := range sh.filled {
			was := sh.filled[s]
			now := views[i].bitmap[s/8]&(1<<(s%8)) != 0
			sh.filled[s] = now
			if now {
				warmed++
			}
			if now && !was {
				delta++
			} else if was && !now {
				delta--
			}
		}
	}
	c.filled.Add(delta)
	pl.reg.Counter("ericache.warmed_blocks").Add(warmed)
	return warmed, nil
}
