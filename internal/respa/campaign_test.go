package respa

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"hfxmd/internal/chem"
	"hfxmd/internal/ckpt"
	"hfxmd/internal/md"
	"hfxmd/internal/scf"
)

// campaignOpts is a short H2/HF campaign from seeded 300 K velocities.
func campaignOpts(outer, k int) Options {
	return Options{Steps: outer, K: k, Dt: 0.25, TemperatureK: 300, Seed: 7}
}

// frameBits flattens a frame into the bits of every number it carries.
func frameBits(f md.Frame) []uint64 {
	b := []uint64{uint64(f.Step)}
	for _, x := range []float64{f.TimeFS, f.Potential, f.Kinetic, f.Total, f.TempK} {
		b = append(b, math.Float64bits(x))
	}
	for _, p := range f.Positions {
		for _, x := range p {
			b = append(b, math.Float64bits(x))
		}
	}
	return b
}

func stateSha(st *ckpt.MDState) string {
	h := sha256.Sum256(ckpt.EncodeState(st))
	return hex.EncodeToString(h[:])
}

// TestCampaignMatchesHandWiredRun: without a session, Campaign is
// respa.Run on md.SCFForces and the spring reference under the spring
// label, bit for bit — every frame and the final state — at k = 1 and
// k = 2, and its summary records one step per outer boundary.
func TestCampaignMatchesHandWiredRun(t *testing.T) {
	mol := chem.Hydrogen(1.5)
	cfg := scf.Config{}
	for _, k := range []int{1, 2} {
		opts := campaignOpts(4, k)
		sum, got, err := Campaign(mol, cfg, nil, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		opts.RefLabel = RefSpring
		want, err := Run(mol, md.SCFForces(cfg), SpringReference(mol, 0, 0), opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Frames) != len(want.Frames) {
			t.Fatalf("k=%d: %d frames, hand-wired run %d", k, len(got.Frames), len(want.Frames))
		}
		for i := range want.Frames {
			g, w := frameBits(got.Frames[i]), frameBits(want.Frames[i])
			for c := range w {
				if g[c] != w[c] {
					t.Fatalf("k=%d: frame %d differs from the hand-wired run in word %d", k, i, c)
				}
			}
		}
		if sum.FinalStateSha256 != stateSha(want.Final) || sum.DriftPerAtom != want.EnergyDrift() {
			t.Fatalf("k=%d: summary hash %s drift %g, hand-wired %s %g",
				k, sum.FinalStateSha256, sum.DriftPerAtom, stateSha(want.Final), want.EnergyDrift())
		}
		if len(sum.Steps) != opts.Steps || sum.RespaK != k || sum.Ref != RefSpring {
			t.Fatalf("k=%d: %d steps (want %d), respaK %d, ref %q", k, len(sum.Steps), opts.Steps, sum.RespaK, sum.Ref)
		}
		for i, st := range sum.Steps {
			if st.Step != (i+1)*k || st.Total != want.Frames[i+1].Total {
				t.Fatalf("k=%d: step record %d at inner step %d, total %g; want %d, %g",
					k, i, st.Step, st.Total, (i+1)*k, want.Frames[i+1].Total)
			}
		}
	}
}

// TestCampaignResumeOnOuterBoundary crashes a checkpointed campaign at an
// outer boundary and resumes it: Run re-emits the restore point's frame,
// which is no completed step, so the resumed summary's steps start after
// the restore point, and the final state is the uninterrupted run's.
func TestCampaignResumeOnOuterBoundary(t *testing.T) {
	const outer, k = 6, 2
	mol := chem.Hydrogen(1.5)
	ref, _, err := Campaign(mol, scf.Config{}, nil, campaignOpts(outer, k), nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	w, err := ckpt.NewWriter(ckpt.Config{Dir: dir, Every: 4, Keep: 3, Plan: &ckpt.FaultPlan{CrashAtStep: 6}})
	if err != nil {
		t.Fatal(err)
	}
	opts := campaignOpts(outer, k)
	opts.Ckpt = w
	if _, _, err := Campaign(mol, scf.Config{}, nil, opts, nil); !errors.Is(err, ckpt.ErrInjectedCrash) {
		t.Fatalf("want injected crash, got %v", err)
	}
	w.Close()
	res, err := ckpt.Load(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	from := int(res.State.Step)
	if from == 0 || from%k != 0 {
		t.Fatalf("restore point %d is not an outer boundary past the start", from)
	}
	w2, err := ckpt.NewWriter(ckpt.Config{Dir: dir, Every: 4, Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	opts = campaignOpts(outer, k)
	opts.Ckpt, opts.Resume = w2, res.State
	sum, _, err := Campaign(mol, scf.Config{}, nil, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Steps) == 0 || sum.Steps[0].Step <= from {
		t.Fatalf("resumed from inner step %d, but the summary's steps start at %+v", from, sum.Steps)
	}
	if len(sum.Steps) != (outer*k-from)/k {
		t.Fatalf("resumed from inner step %d: %d step records, want %d", from, len(sum.Steps), (outer*k-from)/k)
	}
	if sum.FinalStateSha256 != ref.FinalStateSha256 {
		t.Fatalf("resumed final state %s, uninterrupted %s", sum.FinalStateSha256, ref.FinalStateSha256)
	}
}

// TestCampaignSessionCounters: with a session and without one, the
// steps' SCF iterations plus the starting evaluation's are the summary's
// total, and that total is positive. On a session it is also the
// session's, progress runs once per completed outer step with the
// session's counters, and the caller's OnOuterStep still sees every frame.
// Without one, the starting evaluation is an independent cold SCF.
func TestCampaignSessionCounters(t *testing.T) {
	const outer, k = 3, 2
	cfg := scf.Config{}
	mol := chem.Hydrogen(1.5)
	for _, withSession := range []bool{true, false} {
		var sess *md.Session
		if withSession {
			sess = md.NewSession(cfg, md.SessionOptions{})
			defer sess.Close()
		}
		var frames, calls int
		var start int64
		opts := campaignOpts(outer, k)
		opts.OnOuterStep = func(o int, f md.Frame) {
			if frames++; o == 0 && sess != nil {
				start = sess.Stats().SCFIterations
			}
		}
		sum, _, err := Campaign(mol, cfg, sess, opts, func(st Step, ss md.SessionStats) {
			if calls++; st.Step != calls*k || sess != nil && ss.Runs != int64(calls+1) {
				t.Errorf("session %v, progress call %d: step %d after %d session runs", withSession, calls, st.Step, ss.Runs)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if frames != outer+1 || calls != outer || len(sum.Steps) != outer {
			t.Fatalf("session %v: %d frames, %d progress calls, %d step records; want %d, %d, %d", withSession, frames, calls, len(sum.Steps), outer+1, outer, outer)
		}
		want := sum.SCFIterations
		if sess == nil {
			res, _, err := scf.RunForces(mol, cfg)
			if err != nil {
				t.Fatal(err)
			}
			start = int64(res.Iterations)
		} else {
			want = sess.Stats().SCFIterations
		}
		total := start
		for _, st := range sum.Steps {
			if st.SCFIterations <= 0 {
				t.Fatalf("session %v: step %d spent %d SCF iterations", withSession, st.Step, st.SCFIterations)
			}
			total += st.SCFIterations
		}
		if start <= 0 || total != sum.SCFIterations || total != want {
			t.Fatalf("session %v: start %d + steps = %d, summary %d, session %d", withSession, start, total, sum.SCFIterations, want)
		}
	}
}
