package md

import (
	"fmt"

	"hfxmd/internal/chem"
	"hfxmd/internal/scf"
	"hfxmd/internal/store"
)

// densityKeyPrefix is the store namespace for converged densities; it
// matches internal/server's, so an aimd trajectory and an hfxd instance
// pointed at the same store directory seed each other.
const densityKeyPrefix = "density:"

// StoredSCFPotential is SCFPotential with partial-hit prefix reuse
// through a tiered store: every call looks up the converged density of
// the last geometry with the same composition prefix (the previous MD
// step, or a displaced geometry from the force loop) and starts SCF from
// it with incremental ΔP Fock builds, then stores its own converged
// density back. Across an MD trajectory the seed is always one step old,
// which is exactly when a warm start pays.
//
// Trade-off: a seeded SCF converges to the same tolerance but not to the
// same bits as a cold one, so -store-dir trajectories are NOT bitwise
// comparable to cold trajectories (checkpoint resume within one store
// stays self-consistent: the replayed step re-reads the same stored
// density). A nil store degrades to the plain cold potential.
//
// Safe for the concurrent calls ForcesN makes: the store is internally
// locked, and concurrent writers of one key are all valid seeds.
func StoredSCFPotential(cfg scf.Config, st *store.Store) PotentialFunc {
	if st == nil {
		return SCFPotential(cfg)
	}
	return func(m *chem.Molecule) (float64, error) {
		key := densityKeyPrefix + scf.DensityPrefixKey(cfg, m)
		run := cfg
		if b, ok := st.Get(key); ok {
			if p, status := scf.DecodeSeed(b, m); status == scf.SeedHit {
				run.InitialDensity = p
				run.Incremental = true
				st.Registry().Counter("md.density_seeded").Add(1)
			}
		}
		res, err := scf.Run(m, run)
		if err != nil && run.InitialDensity != nil {
			// A stale or mismatched seed must never fail the
			// trajectory: fall back to the cold guess.
			st.Registry().Counter("md.seed_fallbacks").Add(1)
			res, err = scf.Run(m, cfg)
		}
		if err != nil {
			return 0, err
		}
		if !res.Converged {
			return res.Energy, fmt.Errorf("md: SCF not converged at this geometry")
		}
		st.Put(key, scf.EncodeSeed(m, res.Set.NBasis, res.P.Data))
		return res.Energy, nil
	}
}
