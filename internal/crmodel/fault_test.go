package crmodel

import (
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/platform"
)

// TestZeroRateInjectionBitIdentical pins the seed-derivation hygiene
// contract: arming the injection machinery with every rate at zero must
// be bit-identical to no injection at all, for every model, because the
// fault plan draws from its own rng substream and rate-zero hooks draw
// nothing. RestartRetries/backoff alone carry no rates, so they arm
// nothing.
func TestZeroRateInjectionBitIdentical(t *testing.T) {
	for _, m := range Models() {
		for seed := uint64(1); seed <= 20; seed++ {
			clean := Config{Model: m, Config: platform.Config{App: failApp, System: failure.Titan}}
			armed := clean
			armed.Faults = faultinject.Config{RestartRetries: 5, RestartBackoffSeconds: 60}
			a := Simulate(clean, seed)
			b := Simulate(armed, seed)
			if a != b {
				t.Fatalf("%s seed %d: rate-0 injection diverged from disabled:\n%+v\n%+v", m, seed, a, b)
			}
		}
	}
}

// TestInjectionDegradesDeterministically checks that a degraded run is
// reproducible, actually injects, and costs more than the clean run.
func TestInjectionDegradesDeterministically(t *testing.T) {
	faults := faultinject.Config{
		BBWriteFailProb:  0.2,
		PFSWriteFailProb: 0.2,
		CorruptProb:      0.1,
		RestartFailProb:  0.2,
		CascadeProb:      0.1,
	}
	for _, m := range Models() {
		cfg := Config{Model: m, Config: platform.Config{App: failApp, System: failure.Titan, Faults: faults}}
		a := Simulate(cfg, 777)
		if b := Simulate(cfg, 777); a != b {
			t.Fatalf("%s: degraded run not reproducible", m)
		}
		if a.BBWriteFailures+a.PFSWriteFailures == 0 {
			t.Errorf("%s: no write failures injected at 20%%", m)
		}
		// A single seed can go either way (a failed write also skips its
		// commit's cost); the mean over seeds must not.
		clean := cfg
		clean.Faults = faultinject.Config{}
		var degradedSum, cleanSum float64
		for seed := uint64(1); seed <= 10; seed++ {
			degradedSum += Simulate(cfg, seed).Total()
			cleanSum += Simulate(clean, seed).Total()
		}
		if degradedSum <= cleanSum {
			t.Errorf("%s: mean degraded overhead %.0f not above clean %.0f", m, degradedSum/10, cleanSum/10)
		}
	}
}

// TestCorruptionForcesFallback drives corruption hard enough that some
// restart discovers a torn generation and falls back.
func TestCorruptionForcesFallback(t *testing.T) {
	faults := faultinject.Config{CorruptProb: 0.5}
	found := false
	for seed := uint64(1); seed <= 30 && !found; seed++ {
		cfg := Config{Model: ModelP2, Config: platform.Config{App: failApp, System: failure.Titan, Faults: faults}}
		r := Simulate(cfg, seed)
		found = r.CorruptRestarts > 0
	}
	if !found {
		t.Fatal("no restart ever discovered a corrupt generation at CorruptProb=0.5")
	}
}
