package hfx

import (
	"fmt"

	"hfxmd/internal/integrals"
)

// Rebind points the builder at a new integral engine — a nearby
// geometry of the *same composition and basis*, whose shell structure
// (count, angular momenta, function offsets) is identical — while
// keeping everything expensive to plan: the screened pair list, the
// generated task list, the static assignment, the persistent worker
// pool, and the semi-direct cache's admission layout and slab memory.
//
// This is the cross-step reuse contract for MD: pair and task indices
// are shell-structure-based, so they stay valid across a geometry
// change; the Schwarz bounds in the retained pair list go stale by an
// amount bounded by the atomic displacement (the caller guards that —
// see md.Session); and the ERI *values* are position-dependent, so
// every resident cache block is invalidated here and refilled at the
// new geometry by the next build's fill-on-first-compute path. The net
// effect is that step n+1 replays step n's admission plan instead of
// re-deciding it, and only the integral values are recomputed.
//
// Must not be called concurrently with BuildJK.
func (b *Builder) Rebind(eng *integrals.Engine) error {
	old := b.Eng.Basis
	nb := eng.Basis
	if nb.NBasis != old.NBasis || len(nb.Shells) != len(old.Shells) {
		return fmt.Errorf("hfx: rebind shape mismatch: %d basis functions/%d shells, builder has %d/%d",
			nb.NBasis, len(nb.Shells), old.NBasis, len(old.Shells))
	}
	for i := range nb.Shells {
		if nb.Shells[i].L != old.Shells[i].L || nb.Shells[i].Index != old.Shells[i].Index ||
			nb.Shells[i].Atom != old.Shells[i].Atom {
			return fmt.Errorf("hfx: rebind shell %d mismatch (L=%d idx=%d atom=%d, builder has L=%d idx=%d atom=%d)",
				i, nb.Shells[i].L, nb.Shells[i].Index, nb.Shells[i].Atom,
				old.Shells[i].L, old.Shells[i].Index, old.Shells[i].Atom)
		}
	}
	b.Eng = eng
	b.pl.eng = eng
	b.InvalidateCache()
	b.pl.reg.Counter("hfx.rebinds").Add(1)
	return nil
}
