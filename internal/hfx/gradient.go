package hfx

import (
	"runtime"
	"time"

	"hfxmd/internal/chem"
	"hfxmd/internal/linalg"
)

// gradState is what a gradient build needs beyond the pool's energy
// buffers: per worker, 3·NAtoms accumulators, one derivative block and the
// quartet's two-particle density in both layouts. It is allocated by the
// first Gradient call, so builders that only ever build J and K never
// carry it.
type gradState struct {
	aX  float64
	g   [][]float64 // [worker][3·atom+axis]
	blk [][]float64 // [worker] one ERIShellDeriv block
	gam [][]float64 // [worker] Γ[ab][cd], then Γ[cd][ab]
}

// Gradient returns the nuclear-coordinate gradient of the two-electron
// energy ½Tr(P·J[P]) − ¼aₓTr(P·K[P]) at fixed closed-shell density P:
//
//	Σ_{μνλσ} Γ_{μνλσ}·∂(μν|λσ)/∂R,   Γ = ½P_μνP_λσ − ¼aₓP_μλP_νσ,
//
// one vector per atom. It is one more phase on the builder's pool: the
// same screened pair list, task list, assignment and quartet screen as
// BuildJK, with every surviving quartet's derivative blocks (see
// integrals.Engine.ERIShellDeriv) contracted against Γ into per-worker
// 3·NAtoms accumulators, merged by the same pairwise tree — so the bits
// depend on Options.Threads, not on GOMAXPROCS. Like BuildJK it must not
// run concurrently with another build on this builder.
func (b *Builder) Gradient(p *linalg.Matrix, aX float64) []chem.Vec3 {
	pl := b.pl
	n := pl.eng.Basis.NBasis
	if p.Rows != n || p.Cols != n {
		panic("hfx: density dimension mismatch")
	}
	natoms := pl.eng.Basis.Mol.NAtoms()
	if pl.grad == nil {
		gs := &gradState{g: make([][]float64, pl.nw), blk: make([][]float64, pl.nw), gam: make([][]float64, pl.nw)}
		blen := pl.eng.MaxERIBufLen()
		for w := range gs.g {
			gs.g[w] = make([]float64, 3*natoms)
			gs.blk[w] = make([]float64, pl.eng.MaxERIDerivBufLen())
			gs.gam[w] = make([]float64, 2*blen)
		}
		pl.grad = gs
	}
	gs := pl.grad
	gs.aX = aX
	pl.setDensity(p)
	pl.phase = phaseGradient
	t0 := time.Now()
	pl.broadcast()
	pl.p = nil
	for stride := 1; stride < pl.nw; stride *= 2 {
		for w := 0; w+stride < pl.nw; w += 2 * stride {
			for i, v := range gs.g[w+stride] {
				gs.g[w][i] += v
			}
		}
	}
	pl.reg.Counter("grad.builds").Add(1)
	pl.reg.Counter("grad.wall_ns").Add(time.Since(t0).Nanoseconds())
	out := make([]chem.Vec3, natoms)
	for a := range out {
		out[a] = chem.Vec3{gs.g[0][3*a], gs.g[0][3*a+1], gs.g[0][3*a+2]}
	}
	runtime.KeepAlive(b)
	return out
}

// gradient is the gradient phase of one pool worker.
func (pl *pool) gradient(w int) {
	clear(pl.grad.g[w])
	pl.drain(w)
}

// gradTask is runTask for the gradient phase: the same quartet loop and
// screen, with the digestion into J and K replaced by the contraction of the
// quartet's derivative blocks against its two-particle density.
func (pl *pool) gradTask(w, ti int) {
	t := &pl.tasks[ti]
	set := pl.eng.Basis
	gs := pl.grad
	s := &pl.slots[w]
	gw, blk, sc := gs.g[w], gs.blk[w], s.sc
	bra := pl.scr.Pairs[t.Bra]
	pl.braRows(bra, s.rowP)
	for ji := t.KetLo; ji < t.KetHi; ji++ {
		ket := pl.scr.Pairs[ji]
		if ok, rest := pl.screenQuartet(bra, ket, ji, s.rowP); !ok {
			if rest {
				break
			}
			continue
		}
		a, b, c, d := bra.A, bra.B, ket.A, ket.B
		atoms := [4]int{set.Shells[a].Atom, set.Shells[b].Atom, set.Shells[c].Atom, set.Shells[d].Atom}
		if atoms[0] == atoms[1] && atoms[1] == atoms[2] && atoms[2] == atoms[3] {
			continue // a one-centre integral does not depend on where the atom is
		}
		nab := set.Shells[a].NFuncs() * set.Shells[b].NFuncs()
		ncd := set.Shells[c].NFuncs() * set.Shells[d].NFuncs()
		gam, gamT := gs.gam[w][:nab*ncd], gs.gam[w][nab*ncd:2*nab*ncd]
		pl.quartetDensity(a, b, c, d, gam, gamT)
		// The four centre derivatives of an integral add up to zero, so a
		// pair that sits on one atom needs no derivative block of its own:
		// its atom takes minus what the other pair's two centres receive.
		switch {
		case atoms[2] == atoms[3]:
			pl.eng.ERIShellDeriv(a, b, c, d, blk, sc)
			contractDeriv(blk, gam, gw, atoms[0], atoms[1], atoms[2])
		case atoms[0] == atoms[1]:
			pl.eng.ERIShellDeriv(c, d, a, b, blk, sc)
			contractDeriv(blk, gamT, gw, atoms[2], atoms[3], atoms[0])
		default:
			pl.eng.ERIShellDeriv(a, b, c, d, blk, sc)
			contractDeriv(blk, gam, gw, atoms[0], atoms[1], -1)
			pl.eng.ERIShellDeriv(c, d, a, b, blk, sc)
			contractDeriv(blk, gamT, gw, atoms[2], atoms[3], -1)
		}
	}
}

// quartetDensity fills gam[ab][cd] (and its transpose gamT[cd][ab]) with the
// two-particle density a canonical quartet stands for: the quartet's weight
// in the sum over all ordered shell quartets — the size of its orbit under
// the eight index permutations — times the orbit average of Γ,
//
//	½P_abP_cd − ⅛aₓ(P_acP_bd + P_adP_bc).
func (pl *pool) quartetDensity(a, b, c, d int, gam, gamT []float64) {
	set, p := pl.eng.Basis, pl.p
	deg := 1.0
	if a != b {
		deg *= 2
	}
	if c != d {
		deg *= 2
	}
	if a != c || b != d {
		deg *= 2
	}
	cj, ck := 0.5*deg, -0.125*pl.grad.aX*deg
	sa, sb, sc, sd := &set.Shells[a], &set.Shells[b], &set.Shells[c], &set.Shells[d]
	na, nb, nc, nd := sa.NFuncs(), sb.NFuncs(), sc.NFuncs(), sd.NFuncs()
	nab, ncd := na*nb, nc*nd
	for fa := 0; fa < na; fa++ {
		pa := p.Row(sa.Index + fa)
		for fb := 0; fb < nb; fb++ {
			pb := p.Row(sb.Index + fb)
			ab := fa*nb + fb
			pab := cj * pa[sb.Index+fb]
			for fc := 0; fc < nc; fc++ {
				pac, pbc := pa[sc.Index+fc], pb[sc.Index+fc]
				pcd := p.Row(sc.Index + fc)[sd.Index : sd.Index+nd]
				pad, pbd := pa[sd.Index:sd.Index+nd], pb[sd.Index:sd.Index+nd]
				for fd, pcdv := range pcd {
					cd := fc*nd + fd
					v := pab*pcdv + ck*(pac*pbd[fd]+pad[fd]*pbc)
					gam[ab*ncd+cd] = v
					gamT[cd*nab+ab] = v
				}
			}
		}
	}
}

// contractDeriv adds the six traces of one ERIShellDeriv block against the
// quartet's two-particle density to the accumulators of the block's two
// bra atoms, and minus each of them to atom rest when that is not negative.
func contractDeriv(blk, gam, g []float64, atomA, atomB, rest int) {
	n := len(gam)
	for s, atom := range [2]int{atomA, atomB} {
		for axis := 0; axis < 3; axis++ {
			d := blk[(s*3+axis)*n:][:n]
			var acc float64
			for i, v := range gam {
				acc += v * d[i]
			}
			g[3*atom+axis] += acc
			if rest >= 0 {
				g[3*rest+axis] -= acc
			}
		}
	}
}
