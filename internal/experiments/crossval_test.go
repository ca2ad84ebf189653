package experiments

import (
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/workload"
)

// TestCrossValidation drives the step tier through the shared tier
// runner against the app-level reference on a matched platform
// configuration and identical seed sequences, asserting the agreement
// the CrossValidation experiment reports: full bit-identity — the entire
// RunResult — on every seed of every catalogue entry. The Makefile's ci
// target runs this test under the race detector.
func TestCrossValidation(t *testing.T) {
	app := workload.App{Name: "crossval-48", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24}
	sys := failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48}
	plat := platform.Config{App: app, System: sys}
	const runs = 6
	ref, tier := AppTier(), StepTier()
	t.Run(tier.Name, func(t *testing.T) {
		for _, id := range policy.All() {
			aAgg := SimulateTierN(ref, id, plat, runs, 42, 2)
			sAgg := SimulateTierN(tier, id, plat, runs, 42, 2)
			if aAgg.N() != runs || sAgg.N() != runs {
				t.Fatalf("%v: run counts %d/%d, want %d", id, aAgg.N(), sAgg.N(), runs)
			}
			for i, ar := range aAgg.Runs() {
				if sr := sAgg.Runs()[i]; ar != sr {
					t.Fatalf("%v seed %d: step tier not bit-identical\n%s:  %+v\n%s: %+v",
						id, i, ref.Name, ar, tier.Name, sr)
				}
			}
		}
	})
}

// TestCrossValidationExperiment checks the registry entry renders the
// agreement table and reports zero divergence under the tier-qualified
// value keys — including the step tier's exact-mismatch cells, which
// must be zero.
func TestCrossValidationExperiment(t *testing.T) {
	r := CrossValidation(Params{Runs: 96, Seed: 42})
	if r.ID != "crossval" {
		t.Fatalf("ID = %q", r.ID)
	}
	for _, lbl := range []string{"B", "M1", "M2", "P1", "P2"} {
		if d, ok := r.Values[lbl+"/step/exact-mismatch"]; !ok || d != 0 {
			t.Errorf("%s: %v seeds diverge bit-wise between app and step tiers", lbl, d)
		}
		if d := r.Values[lbl+"/step/wall-divergence"]; d != 0 {
			t.Errorf("%s: step wall-clock divergence %v, want exactly 0", lbl, d)
		}
	}
}
