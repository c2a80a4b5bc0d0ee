package hfx

import (
	"runtime"
	"time"

	"hfxmd/internal/chem"
	"hfxmd/internal/linalg"
)

// Gradient returns the nuclear-coordinate gradient of the two-electron
// energy ½Tr(P·J[P]) − ¼aₓTr(P·K[P]) at fixed closed-shell density P:
//
//	Σ_{μνλσ} Γ_{μνλσ}·∂(μν|λσ)/∂R,   Γ = ½P_μνP_λσ − ¼aₓP_μλP_νσ,
//
// one vector per atom. It is one more phase on the builder's executors:
// the same screened pair list, task list, placement and quartet loop as
// BuildJK, with every surviving quartet's derivative blocks (see
// integrals.Engine.ERIShellDeriv) contracted against Γ into per-slot
// 3·NAtoms accumulators, merged by the same canonical tree — so the bits
// depend on the slot count, not on GOMAXPROCS, the rank count or where a
// unit ran. The first call allocates the gradient buffers. Like BuildJK it
// must not run concurrently with another build on this builder.
func (b *Builder) Gradient(p *linalg.Matrix, aX float64) []chem.Vec3 {
	pl := b.pl
	natoms := pl.eng.Basis.Mol.NAtoms()
	if pl.slots[0].g == nil {
		for i := range pl.slots {
			pl.slots[i].g = make([]float64, 3*natoms)
		}
		for i := range pl.execs {
			pl.execs[i].dblk = make([]float64, pl.eng.MaxERIDerivBufLen())
			pl.execs[i].gam = make([]float64, 2*pl.eng.MaxERIBufLen())
		}
	}
	pl.setDensity(p)
	pl.aX = aX
	t0 := time.Now()
	pl.run(phaseGradient)
	pl.reduce(pl.slots)
	pl.p = nil
	pl.reg.Counter("grad.builds").Add(1)
	pl.reg.Counter("grad.wall_ns").Add(time.Since(t0).Nanoseconds())
	g := pl.slots[0].g
	out := make([]chem.Vec3, natoms)
	for a := range out {
		out[a] = chem.Vec3{g[3*a], g[3*a+1], g[3*a+2]}
	}
	runtime.KeepAlive(b)
	return out
}

// gradQuartet contracts the derivative blocks of the surviving canonical
// quartet (ab|cd) against its two-particle density into g.
func (pl *pool) gradQuartet(x *executor, g []float64, a, b, c, d int) {
	set := pl.eng.Basis
	atoms := [4]int{set.Shells[a].Atom, set.Shells[b].Atom, set.Shells[c].Atom, set.Shells[d].Atom}
	if atoms[0] == atoms[1] && atoms[1] == atoms[2] && atoms[2] == atoms[3] {
		return // a one-centre integral does not depend on where the atom is
	}
	nab := set.Shells[a].NFuncs() * set.Shells[b].NFuncs()
	ncd := set.Shells[c].NFuncs() * set.Shells[d].NFuncs()
	gam, gamT := x.gam[:nab*ncd], x.gam[nab*ncd:2*nab*ncd]
	pl.quartetDensity(a, b, c, d, gam, gamT)
	// The four centre derivatives of an integral add up to zero, so a
	// pair that sits on one atom needs no derivative block of its own:
	// its atom takes minus what the other pair's two centres receive.
	switch {
	case atoms[2] == atoms[3]:
		pl.eng.ERIShellDeriv(a, b, c, d, x.dblk, x.sc)
		contractDeriv(x.dblk, gam, g, atoms[0], atoms[1], atoms[2])
	case atoms[0] == atoms[1]:
		pl.eng.ERIShellDeriv(c, d, a, b, x.dblk, x.sc)
		contractDeriv(x.dblk, gamT, g, atoms[2], atoms[3], atoms[0])
	default:
		pl.eng.ERIShellDeriv(a, b, c, d, x.dblk, x.sc)
		contractDeriv(x.dblk, gam, g, atoms[0], atoms[1], -1)
		pl.eng.ERIShellDeriv(c, d, a, b, x.dblk, x.sc)
		contractDeriv(x.dblk, gamT, g, atoms[2], atoms[3], -1)
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
	cj, ck := 0.5*deg, -0.125*pl.aX*deg
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
