package dft

import (
	"math"
	"testing"
)

// The finite-difference evaluation of PBE/PBE0 that pbeXC replaced, kept
// verbatim as the test oracle (including its γ ≤ 1e-20 and expo ≤ 1
// guards, which the closed form does not need).

// vwn5 is VWN5's ε_c and v_c in closed form, with rs from ρ directly.
func vwn5(rho float64) (ec, vc float64) {
	return vwn5x(math.Sqrt(math.Cbrt(3 / (4 * math.Pi * rho))))
}

// pbeEnergyDensity returns the PBE exchange+correlation energy per volume.
func pbeEnergyDensity(rho, gamma float64) float64 {
	if rho < rhoFloor {
		return 0
	}
	const (
		kappa = 0.804
		mu    = 0.2195149727645171
		beta  = 0.06672455060314922
	)
	gammaC := (1 - math.Ln2) / (math.Pi * math.Pi)

	grad := math.Sqrt(math.Max(gamma, 0))
	kf := math.Cbrt(3 * math.Pi * math.Pi * rho)
	// Exchange: f_x = −cx ρ^{4/3} F_x(s), s = |∇ρ|/(2 k_f ρ).
	s := grad / (2 * kf * rho)
	fxEnh := 1 + kappa - kappa/(1+mu*s*s/kappa)
	ex := -cx * rho * math.Cbrt(rho) * fxEnh

	// Correlation: ε_c^PBE = ε_c^LDA + H(rs, t).
	ecLDA, _ := vwn5(rho)
	ks := math.Sqrt(4 * kf / math.Pi)
	t := grad / (2 * ks * rho)
	expo := math.Exp(-ecLDA / gammaC)
	var aTerm float64
	if expo > 1 {
		aTerm = beta / gammaC / (expo - 1)
	} else {
		aTerm = 1e30 // ε_c ≥ 0 cannot happen for VWN, guard anyway
	}
	t2 := t * t
	num := 1 + aTerm*t2
	den := 1 + aTerm*t2 + aTerm*aTerm*t2*t2
	h := gammaC * math.Log(1+beta/gammaC*t2*num/den)
	return ex + rho*(ecLDA+h)
}

// evalNumeric computes the derivatives of an energy-density function by
// central differences with relative steps; used by the GGA functionals.
func evalNumeric(f func(rho, gamma float64) float64, rho, gamma float64) (float64, float64, float64) {
	if rho < rhoFloor {
		return 0, 0, 0
	}
	v := f(rho, gamma)
	hr := 1e-6 * rho
	dfdrho := (f(rho+hr, gamma) - f(rho-hr, gamma)) / (2 * hr)
	var dfdgamma float64
	if gamma > 1e-20 {
		hg := 1e-6 * gamma
		dfdgamma = (f(rho, gamma+hg) - f(rho, gamma-hg)) / (2 * hg)
	}
	return v, dfdrho, dfdgamma
}

// pbeExchangeOnly returns just the PBE exchange energy density.
func pbeExchangeOnly(rho, gamma float64) float64 {
	if rho < rhoFloor {
		return 0
	}
	const (
		kappa = 0.804
		mu    = 0.2195149727645171
	)
	grad := math.Sqrt(math.Max(gamma, 0))
	kf := math.Cbrt(3 * math.Pi * math.Pi * rho)
	s := grad / (2 * kf * rho)
	fxEnh := 1 + kappa - kappa/(1+mu*s*s/kappa)
	return -cx * rho * math.Cbrt(rho) * fxEnh
}

// pbeOracle is the energy density Eval differentiated numerically at the
// parent commit: ax = 0 is PBE, ¼ the semilocal part of PBE0.
func pbeOracle(ax float64) func(rho, gamma float64) float64 {
	return func(r, g float64) float64 { return pbeEnergyDensity(r, g) - ax*pbeExchangeOnly(r, g) }
}

func TestPBEXCMatchesNumericOracle(t *testing.T) {
	gammas := []float64{0}
	for e := -24; e <= 6; e += 2 {
		gammas = append(gammas, math.Pow(10, float64(e)))
	}
	// The density table's whole range, from just above rhoFloor (so that
	// the oracle's ρ − h stays above it too) into the closed-form fallback
	// above 2^rhoMaxExp.
	rhos := []float64{rhoFloor * (1 + 1e-5)}
	for e := -11.75; e <= 4.5; e += 0.25 {
		rhos = append(rhos, math.Pow(10, e))
	}
	const fdStep = 1e-6 // evalNumeric's relative step
	for _, ax := range []float64{0, 0.25} {
		oracle := pbeOracle(ax)
		for _, rho := range rhos {
			for _, gamma := range gammas {
				f, dr, dg := pbeXC(rho, gamma, ax)
				fo, dro, dgo := evalNumeric(oracle, rho, gamma)
				// f shares no rounding with the oracle (table lookup,
				// log1p): equal to a few ulp.
				if math.Abs(f-fo) > 1e-13*math.Abs(fo) {
					t.Fatalf("ax=%g ρ=%g γ=%g: f %.17g oracle %.17g", ax, rho, gamma, f, fo)
				}
				// A central difference with step h carries a rounding
				// error of about ulp(f)/h on top of the 1e-6 asked for.
				noise := 16 * 0x1p-52 * math.Abs(fo) / fdStep
				if math.Abs(dr-dro) > 1e-6*math.Abs(dr)+noise/rho {
					t.Fatalf("ax=%g ρ=%g γ=%g: ∂f/∂ρ %.12g oracle %.12g", ax, rho, gamma, dr, dro)
				}
				if gamma > 1e-20 && math.Abs(dg-dgo) > 1e-6*math.Abs(dg)+noise/gamma {
					t.Fatalf("ax=%g ρ=%g γ=%g: ∂f/∂γ %.12g oracle %.12g", ax, rho, gamma, dg, dgo)
				}
			}
		}
	}
}

// The oracle returned ∂f/∂γ = 0 below γ = 1e-20 and loses every digit of
// it to rounding well above that; the true limit is
//
//	∂f/∂γ(γ=0) = −(1−ax)·c + c,   c = βπ/(16 k_f ρ),
//
// because μ = βπ²/3 makes the exchange and correlation gradient
// coefficients cancel: exactly zero for PBE, ax·c > 0 for PBE0. Check it
// against a one-sided second-order difference of the oracle's energy
// density whose step is a fixed fraction of the γ at which s² = 1.
func TestPBEXCZeroGradientLimit(t *testing.T) {
	for _, ax := range []float64{0, 0.25} {
		oracle := pbeOracle(ax)
		for e := -10.0; e <= 2; e += 0.5 {
			rho := math.Pow(10, e)
			kf := math.Cbrt(3 * math.Pi * math.Pi * rho)
			c := pbeBeta * math.Pi / (16 * kf * rho)
			h := 1e-5 * 4 * kf * kf * rho * rho
			fd := (-3*oracle(rho, 0) + 4*oracle(rho, h) - oracle(rho, 2*h)) / (2 * h)
			_, _, d0 := pbeXC(rho, 0, ax)
			if math.Abs(d0-ax*c) > 1e-12*c || math.Abs(d0-fd) > 1e-6*c {
				t.Fatalf("ax=%g ρ=%g: ∂f/∂γ(γ=0) = %.12g, want %.12g, one-sided difference %.12g", ax, rho, d0, ax*c, fd)
			}
			// Continuous into the region the oracle zeroed.
			for _, gamma := range []float64{1e-24 * h, 1e-12 * h} {
				if _, _, d := pbeXC(rho, gamma, ax); math.Abs(d-d0) > 1e-9*c {
					t.Fatalf("ax=%g ρ=%g γ=%g: ∂f/∂γ %.12g, limit %.12g", ax, rho, gamma, d, d0)
				}
			}
		}
	}
}
