package dft

import "math"

// Functional is a closed-shell semilocal exchange–correlation functional
// f(ρ, γ) with γ = |∇ρ|². Eval returns the energy density per volume and
// its partial derivatives, all in closed form; the finite-difference
// evaluation they replaced survives in the tests as their oracle.
type Functional interface {
	// Name identifies the functional in reports.
	Name() string
	// ExactExchangeFraction is the hybrid mixing parameter a in
	// E_xc = a·E_x^HF + semilocal part (0 for pure functionals, 1 for HF).
	ExactExchangeFraction() float64
	// NeedsGrid reports whether a semilocal part must be integrated.
	NeedsGrid() bool
	// NeedsGradient reports whether γ enters (GGA).
	NeedsGradient() bool
	// Eval returns f and ∂f/∂ρ, ∂f/∂γ at one grid point.
	Eval(rho, gamma float64) (f, dfdrho, dfdgamma float64)
}

const (
	// cx is the Slater/Dirac exchange constant (3/4)(3/π)^{1/3}.
	cx = 0.7385587663820224

	rhoFloor = 1e-12 // below this the point contributes nothing
)

// ---------------------------------------------------------------------------
// Hartree–Fock: no semilocal part, full exact exchange.

// HF is the "functional" describing pure Hartree–Fock.
type HF struct{}

// Name implements Functional.
func (HF) Name() string { return "HF" }

// ExactExchangeFraction implements Functional.
func (HF) ExactExchangeFraction() float64 { return 1 }

// NeedsGrid implements Functional.
func (HF) NeedsGrid() bool { return false }

// NeedsGradient implements Functional.
func (HF) NeedsGradient() bool { return false }

// Eval implements Functional.
func (HF) Eval(rho, gamma float64) (float64, float64, float64) { return 0, 0, 0 }

// ---------------------------------------------------------------------------
// LDA: Slater exchange + VWN5 correlation.

// LDA is the local density approximation (SVWN5, closed shell).
type LDA struct{}

// Name implements Functional.
func (LDA) Name() string { return "LDA" }

// ExactExchangeFraction implements Functional.
func (LDA) ExactExchangeFraction() float64 { return 0 }

// NeedsGrid implements Functional.
func (LDA) NeedsGrid() bool { return true }

// NeedsGradient implements Functional.
func (LDA) NeedsGradient() bool { return false }

// Eval implements Functional.
func (LDA) Eval(rho, gamma float64) (float64, float64, float64) {
	if rho < rhoFloor {
		return 0, 0, 0
	}
	// Slater exchange: f_x = −cx·ρ^{4/3}, v_x = −(4/3)cx·ρ^{1/3}.
	t := lookupRhoTerms(rho)
	fx := -cx * rho * t.r13
	vx := -4.0 / 3.0 * cx * t.r13
	return fx + rho*t.ec, vx + t.vc, 0
}

// VWN5 paramagnetic parameters and the constants derived from them.
const (
	vwnA  = 0.0310907
	vwnX0 = -0.10498
	vwnB  = 3.72744
	vwnC  = 12.9352
	vwnX  = vwnX0*vwnX0 + vwnB*vwnX0 + vwnC // X(x0)
)

var vwnQ = math.Sqrt(4*vwnC - vwnB*vwnB)

// vwn5x returns the VWN5 paramagnetic correlation energy per electron ε_c
// and potential v_c = ε_c − (rs/3)·dε_c/drs as functions of x = √rs.
//
// At low density (x → ∞) both logarithms tend to 0 and the terms of ε_c
// and dε_c/dx cancel to leading order, so ln(x²/X) and ln((x−x0)²/X) are
// taken as log1p of their arguments' distance from 1, and 2/x − X'/X,
// 2/(x−x0) − X'/X over a common denominator: ε_c keeps its relative
// accuracy down to rhoFloor, which the density table relies on.
func vwn5x(x float64) (ec, vc float64) {
	const a, x0, b, c, fx0 = vwnA, vwnX0, vwnB, vwnC, vwnX
	q := vwnQ
	xx := x*x + b*x + c
	atn := math.Atan(q / (2*x + b))
	l1 := -math.Log1p((b*x + c) / (x * x))          // ln(x²/X)
	l2 := math.Log1p((x0*x0 - c - (2*x0+b)*x) / xx) // ln((x−x0)²/X)
	ec = a * (l1 + 2*b/q*atn - b*x0/fx0*(l2+2*(b+2*x0)/q*atn))
	// dε_c/dx via the standard closed form.
	qq := q*q + (2*x+b)*(2*x+b)
	d1 := (b*x + 2*c) / (x * xx)                      // 2/x − (2x+b)/X
	d2 := ((b+2*x0)*x + 2*c + b*x0) / ((x - x0) * xx) // 2/(x−x0) − (2x+b)/X
	dec := a * (d1 - 4*b/qq - b*x0/fx0*(d2-4*(b+2*x0)/qq))
	// v_c = ε_c − (x/6)·dε_c/dx  (since rs = x² and v = ε − rs/3·dε/drs).
	vc = ec - x/6*dec
	return ec, vc
}

// ---------------------------------------------------------------------------
// PBE: GGA exchange and correlation (Perdew, Burke, Ernzerhof 1996).

// PBE is the closed-shell PBE GGA functional.
type PBE struct{}

// Name implements Functional.
func (PBE) Name() string { return "PBE" }

// ExactExchangeFraction implements Functional.
func (PBE) ExactExchangeFraction() float64 { return 0 }

// NeedsGrid implements Functional.
func (PBE) NeedsGrid() bool { return true }

// NeedsGradient implements Functional.
func (PBE) NeedsGradient() bool { return true }

// Eval implements Functional.
func (PBE) Eval(rho, gamma float64) (float64, float64, float64) { return pbeXC(rho, gamma, 0) }

const (
	pbeKappa = 0.804
	pbeMu    = 0.2195149727645171
	pbeBeta  = 0.06672455060314922
	pbeGamma = (1 - math.Ln2) / (math.Pi * math.Pi)
)

var (
	kfCoef = math.Cbrt(3 * math.Pi * math.Pi) // k_f = kfCoef·ρ^{1/3}
	rsCoef = math.Cbrt(3 / (4 * math.Pi))     // r_s = rsCoef·ρ^{-1/3}
)

// pbeXC returns the PBE energy per volume with the exchange part scaled
// by 1−ax (ax = 0 is PBE, ¼ the semilocal part of PBE0), and its partial
// derivatives with respect to ρ and γ. Every factor of ρ alone comes from
// one table lookup; pbeTerms does the rest.
func pbeXC(rho, gamma, ax float64) (f, dfdrho, dfdgamma float64) {
	if rho < rhoFloor {
		return 0, 0, 0
	}
	return pbeTerms(lookupRhoTerms(rho), rho, gamma, ax)
}

// pbeTerms is pbeXC given the density-only factors r of ρ:
//
//	f = (1−ax)·e_x^LDA(ρ)·F_x(s²) + ρ·(ε_c(ρ) + H(ε_c, t²)),
//	F_x = 1 + κ − κ/(1 + μs²/κ),     s² = γ/(4k_f²ρ²) ∝ γρ^{-8/3},
//	H = γ_c·ln(1 + (β/γ_c)·g),        t² = πγ/(16k_fρ²) ∝ γρ^{-7/3},
//	g = t²·b(b+t²)/(b²+bt²+t⁴),       b = 1/A = (γ_c/β)·(e^{−ε_c/γ_c} − 1).
//
// Writing H in b rather than A keeps every term finite as ε_c → 0⁻
// (b → 0⁺, g → 0), and nothing divides by γ, so γ = 0 returns the
// analytic limit ∂f/∂γ = (1−ax)·e_x^LDA·μ·∂s²/∂γ + ρβ·∂t²/∂γ.
// ε_c is VWN5, as in LDA, not the PW92 fit of the PBE paper.
func pbeTerms(r rhoTerms, rho, gamma, ax float64) (f, dfdrho, dfdgamma float64) {
	if gamma < 0 {
		gamma = 0
	}
	kf := kfCoef * r.r13

	exLDA := -(1 - ax) * cx * rho * r.r13
	ds2 := 1 / (4 * kf * kf * rho * rho) // ∂s²/∂γ
	s2 := gamma * ds2
	d := 1 + pbeMu*s2/pbeKappa
	fx := 1 + pbeKappa - pbeKappa/d
	dfx := pbeMu / (d * d) // dF_x/ds²
	f = exLDA * fx
	dfdrho = exLDA / rho * (4.0/3*fx - 8.0/3*s2*dfx)
	dfdgamma = exLDA * dfx * ds2

	ec, vc, b := r.ec, r.vc, r.b
	dt2 := math.Pi / (16 * kf * rho * rho) // ∂t²/∂γ
	t2 := gamma * dt2
	p := b*b + b*t2 + t2*t2
	g := t2 * b * (b + t2) / p
	h := pbeGamma * math.Log1p(pbeBeta/pbeGamma*g)
	dhdg := pbeBeta / (1 + pbeBeta/pbeGamma*g)
	dhdt2 := dhdg * b * b * b * (b + 2*t2) / (p * p)
	// ∂H/∂ε_c = ∂H/∂g · ∂g/∂b · db/dε_c, with db/dε_c = −(1/β + b/γ_c).
	dhdec := -dhdg * t2 * t2 * t2 * (2*b + t2) / (p * p) * (1/pbeBeta + b/pbeGamma)
	f += rho * (ec + h)
	// ρ·dε_c/dρ = v_c − ε_c and ρ·∂t²/∂ρ = −(7/3)t².
	dfdrho += vc + h - 7.0/3*t2*dhdt2 + dhdec*(vc-ec)
	dfdgamma += rho * dhdt2 * dt2
	return f, dfdrho, dfdgamma
}

// expm1 is e^x − 1. Above ½ the subtraction loses under one bit, and
// math.Expm1's extra care costs more than math.Exp.
func expm1(x float64) float64 {
	if x > 0.5 {
		return math.Exp(x) - 1
	}
	return math.Expm1(x)
}

// ---------------------------------------------------------------------------
// PBE0: hybrid with 25% exact exchange and scaled PBE exchange.

// PBE0 is the parameter-free hybrid functional used for the paper's
// production AIMD: E_xc = ¼E_x^HF + ¾E_x^PBE + E_c^PBE.
type PBE0 struct{}

// Name implements Functional.
func (PBE0) Name() string { return "PBE0" }

// ExactExchangeFraction implements Functional.
func (PBE0) ExactExchangeFraction() float64 { return 0.25 }

// NeedsGrid implements Functional.
func (PBE0) NeedsGrid() bool { return true }

// NeedsGradient implements Functional.
func (PBE0) NeedsGradient() bool { return true }

// Eval implements Functional. The semilocal part is ¾ of PBE exchange
// plus the full PBE correlation.
func (PBE0) Eval(rho, gamma float64) (float64, float64, float64) { return pbeXC(rho, gamma, 0.25) }

// ByName returns a functional by its report name.
func ByName(name string) (Functional, bool) {
	switch name {
	case "HF":
		return HF{}, true
	case "LDA", "SVWN":
		return LDA{}, true
	case "PBE":
		return PBE{}, true
	case "PBE0":
		return PBE0{}, true
	default:
		return nil, false
	}
}
