package stepsim_test

import (
	"math"
	"reflect"
	"testing"

	"pckpt/internal/crmodel"
	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stepsim"
	"pckpt/internal/trace"
	"pckpt/internal/workload"
)

// stepModels is the catalogue the step tier implements — all five
// models, episode machinery included.
var stepModels = []policy.ID{policy.B, policy.M1, policy.M2, policy.P1, policy.P2}

// testPlatforms is the configuration matrix the bit-identity suite runs:
// the crossval platform, a degraded platform with every fault knob
// armed, a stretched-lead variant, and a replayed failure trace — the
// parametric and replayed halves of the acceptance criterion.
func testPlatforms() map[string]platform.Config {
	app := workload.App{Name: "crossval-48", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24}
	sys := failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48}
	return map[string]platform.Config{
		"clean": {App: app, System: sys},
		"degraded": {App: app, System: sys, Faults: faultinject.Config{
			BBWriteFailProb:  0.08,
			PFSWriteFailProb: 0.06,
			CorruptProb:      0.05,
			RestartFailProb:  0.10,
			CascadeProb:      0.07,
		}},
		"stretched-leads": {App: app, System: sys, LeadScale: 2.5, FNRate: 0.3, FPRate: 0.25},
		"replay":          {App: app, System: sys, Replay: testReplay()},
	}
}

// testReplay is a hand-written failure trace: predicted, unpredicted,
// and spurious events, with same-instant collisions to stress the
// tie-break path.
func testReplay() *failure.Replay {
	re := &failure.Replay{
		Name:           "stepsim-bitid",
		Nodes:          48,
		HorizonSeconds: 6 * 3600,
		Events: []failure.ReplayEvent{
			{T: 1800, Node: 3, Lead: 600, Seq: 1},
			{T: 4000, Node: 7, Lead: 0},
			{T: 4000, Node: 9, Lead: 1200, Seq: 2},
			{T: 7200, Node: 11, Lead: 90, Seq: 1},
			{T: 9000, Node: 20, Lead: 300, Seq: 3, Spurious: true},
			{T: 12000, Node: 20, Lead: 2400, Seq: 3},
			{T: 15000, Node: 41, Lead: 0},
			{T: 20000, Node: 5, Lead: 5400, Seq: 2},
		},
	}
	if err := re.Validate(); err != nil {
		panic(err)
	}
	return re
}

// TestCrossValidationStepBitIdentity is the tentpole's acceptance gate: for
// every supported model, platform variant, and seed, the step tier's
// RunResult must equal crmodel's bit for bit — same failure stream, same
// float arithmetic, same event ordering, same fault plan.
func TestCrossValidationStepBitIdentity(t *testing.T) {
	for name, plat := range testPlatforms() {
		plat := plat
		t.Run(name, func(t *testing.T) {
			for _, id := range stepModels {
				for seed := uint64(1); seed <= 8; seed++ {
					app := crmodel.Simulate(crmodel.Config{Model: id, Config: plat}, seed)
					step := stepsim.Simulate(stepsim.Config{Model: id, Config: plat}, seed)
					if app != step {
						t.Errorf("%v seed %d: step tier diverged\napp:  %+v\nstep: %+v", id, seed, app, step)
					}
				}
			}
		})
	}
}

// TestReplaySeedInvariant: a replayed run draws nothing from the seed's
// failure substream, so the step tier — like the app tier — must be
// bit-identical across seeds in replay mode.
func TestReplaySeedInvariant(t *testing.T) {
	plat := testPlatforms()["replay"]
	for _, id := range stepModels {
		ref := stepsim.Simulate(stepsim.Config{Model: id, Config: plat}, 1)
		for seed := uint64(2); seed <= 4; seed++ {
			if got := stepsim.Simulate(stepsim.Config{Model: id, Config: plat}, seed); got != ref {
				t.Errorf("%v: replayed run depends on seed %d\nref: %+v\ngot: %+v", id, seed, ref, got)
			}
		}
	}
}

// TestSpareExhaustionBitIdentity is the spare-pool regression gate: at a
// tiny spare count on a failure-heavy system, runs end truncated (the
// old code panicked) — and they must end truncated IDENTICALLY on both
// tiers: same Truncated marker, same wall time, same partial overheads,
// bit for bit.
func TestSpareExhaustionBitIdentity(t *testing.T) {
	plat := platform.Config{
		App:        workload.App{Name: "spare-exhaust", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24},
		System:     failure.System{Name: "hostile", Shape: 0.75, ScaleHours: 6, Nodes: 48},
		SpareNodes: 2,
	}
	truncated := 0
	for _, id := range stepModels {
		for seed := uint64(1); seed <= 8; seed++ {
			app := crmodel.Simulate(crmodel.Config{Model: id, Config: plat}, seed)
			step := stepsim.Simulate(stepsim.Config{Model: id, Config: plat}, seed)
			if app != step {
				t.Errorf("%v seed %d: step tier diverged on spare exhaustion\napp:  %+v\nstep: %+v", id, seed, app, step)
			}
			if app.Truncated {
				truncated++
				if app.Failures <= plat.SpareNodes {
					t.Errorf("%v seed %d: truncated after only %d failures with %d spares", id, seed, app.Failures, plat.SpareNodes)
				}
			}
		}
	}
	if truncated == 0 {
		t.Fatal("no run exhausted the 2-node spare pool: the regression path never executed")
	}
}

// TestComputeResidualSnapTermination is the livelock regression gate:
// on a failure-heavy platform, a rollback can land progress a sub-ULP
// residual short of ComputeSeconds — simulated time can no longer
// resolve the remaining wait, so progress froze while the run looped
// compute-0s/checkpoint forever until the engine watchdog fired. The
// compute loop now snaps residuals below a microsecond (as the
// node-granular tier always did). This exact (platform, seed) pair spun
// before the fix; it must now terminate, identically on both tiers.
func TestComputeResidualSnapTermination(t *testing.T) {
	plat := platform.Config{
		App:    workload.App{Name: "tenant", Nodes: 16, TotalCkptGB: 320, ComputeHours: 4},
		System: failure.System{Name: "busy", Shape: 0.75, ScaleHours: 2, Nodes: 16},
	}
	const seed = 14653447727327214218
	app := crmodel.Simulate(crmodel.Config{Model: policy.P2, Config: plat}, seed)
	step := stepsim.Simulate(stepsim.Config{Model: policy.P2, Config: plat}, seed)
	if app != step {
		t.Errorf("step tier diverged on the residual-snap path\napp:  %+v\nstep: %+v", app, step)
	}
	if app.Truncated {
		t.Errorf("run truncated; want normal completion (wall %.0fs)", app.WallSeconds)
	}
	if app.WallSeconds <= plat.App.ComputeHours*3600 {
		t.Errorf("wall %.0fs not above compute time — wrong (platform, seed) pinned?", app.WallSeconds)
	}
}

// TestSpareExhaustionTraceParity pins the truncated timeline: both tiers
// must record the same events and end with a truncated marker, not
// complete.
func TestSpareExhaustionTraceParity(t *testing.T) {
	// P2 avoids most predicted failures by migration, so exhausting its
	// spare pool takes a harsher recipe than the bit-identity matrix: a
	// single spare, a predictor that misses 30% of failures, and node
	// MTBFs of 3 hours.
	plat := platform.Config{
		App:        workload.App{Name: "spare-exhaust", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24},
		System:     failure.System{Name: "hostile", Shape: 0.75, ScaleHours: 3, Nodes: 48},
		FNRate:     0.3,
		FPRate:     0.05,
		SpareNodes: 1,
	}
	for seed := uint64(1); seed <= 12; seed++ {
		var appBuf, stepBuf trace.Buffer
		res := crmodel.Simulate(crmodel.Config{Model: policy.P2, Config: plat, Trace: &appBuf}, seed)
		stepsim.Simulate(stepsim.Config{Model: policy.P2, Config: plat, Trace: &stepBuf}, seed)
		if appBuf.Len() != stepBuf.Len() {
			t.Fatalf("seed %d: timeline length %d vs %d", seed, appBuf.Len(), stepBuf.Len())
		}
		for i, ae := range appBuf.Events() {
			if se := stepBuf.Events()[i]; ae != se {
				t.Fatalf("seed %d: timeline diverges at entry %d\napp:  %+v\nstep: %+v", seed, i, ae, se)
			}
		}
		if !res.Truncated {
			continue
		}
		events := appBuf.Events()
		last := events[len(events)-1]
		sawTrunc := false
		for _, e := range events {
			if e.Kind == trace.Truncated {
				sawTrunc = true
			}
			if e.Kind == trace.Complete {
				t.Fatalf("seed %d: truncated run recorded a complete event", seed)
			}
		}
		if !sawTrunc {
			t.Fatalf("seed %d: truncated run's timeline has no truncated event (last: %+v)", seed, last)
		}
		return // one truncated timeline verified end to end is enough
	}
	t.Fatal("no seed truncated under P2: the trace-parity path never executed")
}

// TestMigrationSupersedeBitIdentity exercises the supersede-during-
// migration path (a p-ckpt episode aborting in-flight migrations, and
// re-predictions landing on Migrating nodes) on a lead-stretched hybrid
// platform, and holds both tiers bit-identical through it.
func TestMigrationSupersedeBitIdentity(t *testing.T) {
	// A checkpoint-heavy app (170 GB/node) pushes θ to ≈41 s — the middle
	// of the lead distribution — so hybrids migrate on long leads AND
	// start episodes on short ones, and 1-hour node MTBFs make short-lead
	// predictions land inside the ≈41 s migration windows.
	plat := platform.Config{
		App:    workload.App{Name: "supersede", Nodes: 48, TotalCkptGB: 8160, ComputeHours: 24},
		System: failure.System{Name: "busy", Shape: 0.75, ScaleHours: 1, Nodes: 48},
	}
	aborted := 0
	for _, id := range []policy.ID{policy.M2, policy.P2} {
		for seed := uint64(1); seed <= 12; seed++ {
			app := crmodel.Simulate(crmodel.Config{Model: id, Config: plat}, seed)
			step := stepsim.Simulate(stepsim.Config{Model: id, Config: plat}, seed)
			if app != step {
				t.Errorf("%v seed %d: step tier diverged on supersede path\napp:  %+v\nstep: %+v", id, seed, app, step)
			}
			aborted += app.AbortedMigrations
		}
	}
	if aborted == 0 {
		t.Fatal("no migration was superseded: the regression path never executed")
	}
}

// TestTraceTimelineParity compares the recorded timelines event for
// event: not just the final accounting but every intermediate state
// transition must land at the same time, node, and progress.
func TestTraceTimelineParity(t *testing.T) {
	plat := testPlatforms()["clean"]
	for _, id := range stepModels {
		var appBuf, stepBuf trace.Buffer
		crmodel.Simulate(crmodel.Config{Model: id, Config: plat, Trace: &appBuf}, 7)
		stepsim.Simulate(stepsim.Config{Model: id, Config: plat, Trace: &stepBuf}, 7)
		if appBuf.Len() != stepBuf.Len() {
			t.Errorf("%v: timeline length %d vs %d", id, appBuf.Len(), stepBuf.Len())
			continue
		}
		for i, ae := range appBuf.Events() {
			if se := stepBuf.Events()[i]; ae != se {
				t.Errorf("%v: timeline diverges at entry %d\napp:  %+v\nstep: %+v", id, i, ae, se)
				break
			}
		}
	}
}

// TestMeteredRunIdentical: attaching a metrics registry must not change
// the result (the same contract the app tier keeps).
func TestMeteredRunIdentical(t *testing.T) {
	plat := testPlatforms()["clean"]
	for _, id := range stepModels {
		plain := stepsim.Simulate(stepsim.Config{Model: id, Config: plat}, 3)
		metered := stepsim.Simulate(stepsim.Config{Model: id, Config: plat, Metrics: metrics.New()}, 3)
		if plain != metered {
			t.Errorf("%v: metering changed the result\nplain:   %+v\nmetered: %+v", id, plain, metered)
		}
	}
}

// TestMeteredSnapshotMatchesApp: a metered step run records exactly the
// series crmodel records for the same run — same names, same samples,
// same gauges and counters, failure-stream and fault-injector series
// included — so every metered entry point can run on the step tier
// without moving a snapshot.
func TestMeteredSnapshotMatchesApp(t *testing.T) {
	plats := testPlatforms()
	chimera, err := workload.ByName("CHIMERA")
	if err != nil {
		t.Fatal(err)
	}
	plats["CHIMERA/Titan"] = platform.Config{App: chimera, System: failure.Titan}
	for name, plat := range plats {
		for _, id := range policy.All() {
			for seed := uint64(0); seed < 8; seed++ {
				appReg, stepReg := metrics.New(), metrics.New()
				app := crmodel.Simulate(crmodel.Config{Model: id, Config: plat, Metrics: appReg}, seed)
				step := stepsim.Simulate(stepsim.Config{Model: id, Config: plat, Metrics: stepReg}, seed)
				if app != step {
					t.Fatalf("%s/%v/seed %d: metered results differ", name, id, seed)
				}
				want, got := appReg.Snapshot(app.WallSeconds), stepReg.Snapshot(step.WallSeconds)
				if got.Empty() {
					t.Fatalf("%s/%v/seed %d: empty step snapshot", name, id, seed)
				}
				if !reflect.DeepEqual(got.Counters, want.Counters) {
					t.Errorf("%s/%v/seed %d: counters differ\nstep: %v\napp:  %v", name, id, seed, got.Counters, want.Counters)
				}
				if !reflect.DeepEqual(got.Gauges, want.Gauges) {
					t.Errorf("%s/%v/seed %d: gauges differ\nstep: %v\napp:  %v", name, id, seed, got.Gauges, want.Gauges)
				}
				if !reflect.DeepEqual(got.Histograms, want.Histograms) {
					t.Errorf("%s/%v/seed %d: histograms differ", name, id, seed)
				}
			}
		}
	}
}

// TestSupports pins the tier's catalogue: the full five-model set since
// the episode port, and still a hard no on invalid IDs.
func TestSupports(t *testing.T) {
	for _, id := range policy.All() {
		if !stepsim.Supports(id) {
			t.Errorf("Supports(%v) = false, want true", id)
		}
	}
	if stepsim.Supports(policy.ID(250)) {
		t.Error("Supports accepted an invalid model ID")
	}
}

// TestValidateRejectsInvalidModel: Validate must still refuse a model
// outside the catalogue (the old episode guard is gone; the catalogue
// check is not).
func TestValidateRejectsInvalidModel(t *testing.T) {
	plat := testPlatforms()["clean"]
	if err := (stepsim.Config{Model: policy.ID(250), Config: plat}).Validate(); err == nil {
		t.Error("Validate accepted an invalid model ID")
	}
	for _, id := range policy.All() {
		if err := (stepsim.Config{Model: id, Config: plat}).Validate(); err != nil {
			t.Errorf("Validate rejected catalogue model %v: %v", id, err)
		}
	}
}

// TestStartAppOffsetIdentity: an app started mid-run on a shared engine
// (no arbiter) computes the same run a solo Simulate does — the
// app-local time base keeps every stream comparison and decision in
// job-relative seconds, so the event sequence and all integer
// accounting match exactly. The float buckets are sums of
// (t0+x)-t0 differences, so they agree to last-ulp tolerance rather
// than bit-for-bit.
func TestStartAppOffsetIdentity(t *testing.T) {
	relClose := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))+1e-9
	}
	for name, plat := range testPlatforms() {
		plat := plat
		t.Run(name, func(t *testing.T) {
			for _, id := range stepModels {
				for seed := uint64(1); seed <= 4; seed++ {
					solo := stepsim.Simulate(stepsim.Config{Model: id, Config: plat}, seed)
					eng := stepsim.NewEngine()
					var h *stepsim.AppHandle
					// Admit the app at t=98765.4321s of machine time.
					eng.At(98765.4321, func() {
						h = stepsim.StartApp(eng, stepsim.Config{Model: id, Config: plat}, seed, stepsim.AppOptions{AppIndex: 3})
					})
					eng.RunAll()
					if !h.Done() {
						t.Fatalf("%v seed %d: offset app never finished", id, seed)
					}
					got := h.Result()
					eng.Release()
					for _, c := range []struct {
						name      string
						got, want float64
					}{
						{"WallSeconds", got.WallSeconds, solo.WallSeconds},
						{"Overheads.Checkpoint", got.Overheads.Checkpoint, solo.Overheads.Checkpoint},
						{"Overheads.Recompute", got.Overheads.Recompute, solo.Overheads.Recompute},
						{"Overheads.Recovery", got.Overheads.Recovery, solo.Overheads.Recovery},
					} {
						if !relClose(c.got, c.want) {
							t.Fatalf("%v seed %d: %s = %v, solo %v", id, seed, c.name, c.got, c.want)
						}
					}
					got.WallSeconds, got.Overheads = solo.WallSeconds, solo.Overheads
					if got != solo {
						t.Fatalf("%v seed %d: offset-start accounting differs from solo\nsolo:   %+v\noffset: %+v", id, seed, solo, got)
					}
				}
			}
		})
	}
}
