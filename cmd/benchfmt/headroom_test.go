//go:build !race

// Timing ratios are only meaningful without the race detector, which
// slows the two tiers by different factors.

package main

import (
	"testing"

	"pckpt/internal/crmodel"
	"pckpt/internal/failure"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stepsim"
	"pckpt/internal/workload"
)

// TestStepPerRunHeadroom is the same-binary successor of the committed-
// JSON headroom gates above: it times whole model-B runs of Table I
// apps with thousands of checkpoint cycles on both tiers, in this
// process, and requires the step tier (the default sweep path) to be at
// least 4× faster per run than the app tier. Each ratio is the best of
// up to three measurements, so one descheduled measurement cannot fail
// it.
func TestStepPerRunHeadroom(t *testing.T) {
	const (
		seeds = 50
		floor = 4.0
	)
	for _, name := range []string{"POP", "VULCAN"} {
		app, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plat := platform.Config{App: app, System: failure.Titan}
		step := func(b *testing.B) {
			cfg := stepsim.Config{Model: policy.B, Config: plat}
			for i := 0; i < b.N; i++ {
				for s := uint64(1); s <= seeds; s++ {
					stepsim.Simulate(cfg, s)
				}
			}
		}
		ref := func(b *testing.B) {
			cfg := crmodel.Config{Model: policy.B, Config: plat}
			for i := 0; i < b.N; i++ {
				for s := uint64(1); s <= seeds; s++ {
					crmodel.Simulate(cfg, s)
				}
			}
		}
		best := 0.0
		for try := 0; try < 3 && best < floor; try++ {
			stepNs := testing.Benchmark(step).NsPerOp()
			refNs := testing.Benchmark(ref).NsPerOp()
			if stepNs <= 0 {
				t.Fatalf("%s/B: step benchmark measured %d ns/op", name, stepNs)
			}
			best = max(best, float64(refNs)/float64(stepNs))
		}
		t.Logf("%s/B: step tier %.1f× faster per run than the app tier", name, best)
		if best < floor {
			t.Errorf("%s/B: step tier %.2f× faster per run than the app tier, want >= %g×", name, best, floor)
		}
	}
}
