// Package hfxmd is a from-scratch Go reproduction of the system described
// in "Shedding Light on Lithium/Air Batteries Using Millions of Threads on
// the BG/Q Supercomputer" (Weber, Bekas, Laino, Curioni, Bertsch, Futral —
// IPDPS 2014): a scalable evaluation of Hartree–Fock exact exchange (HFX)
// for hybrid-functional ab initio molecular dynamics, together with every
// substrate it rests on and a Blue Gene/Q machine simulator that replays
// the paper's 6,291,456-thread scaling study.
//
// The package is a facade: it re-exports the stable surface of the
// internal packages so that a downstream user needs a single import.
//
// # Layers
//
//   - Chemistry: molecules, geometry builders for the paper's systems
//     (water clusters, propylene carbonate, DMSO, Li2O2), XYZ I/O.
//   - Electronic structure: Gaussian basis sets, McMurchie–Davidson
//     integrals, screening, the task-parallel HFX builder, semilocal DFT,
//     and an SCF driver for HF/LDA/PBE/PBE0.
//   - Dynamics: Born–Oppenheimer MD and reaction-coordinate scans.
//   - Machine: the BG/Q partition/torus/collective model and the strong-
//     scaling experiment harness.
//
// # Quick start
//
//	mol := hfxmd.Water()
//	res, err := hfxmd.RunSCF(mol, hfxmd.SCFConfig{Functional: hfxmd.PBE0{}})
//	if err != nil { ... }
//	fmt.Println(res.Energy)
//
// See examples/quickstart for a complete program and EXPERIMENTS.md for
// the per-figure reproduction index: each figure is one Benchmark in this
// package's tests.
package hfxmd
