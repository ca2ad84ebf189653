package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pckpt/internal/crmodel"
	"pckpt/internal/failure"
	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/runcache"
	"pckpt/internal/stats"
	"pckpt/internal/stepsim"
	"pckpt/internal/workload"
)

// TestSimulateTierNRecoversPanickingRun plants a crashing fake tier in a
// sweep: the sweep must complete, the surviving seeds must aggregate, and
// the crash must be ledgered against its exact seed and configuration.
func TestSimulateTierNRecoversPanickingRun(t *testing.T) {
	badSeed := crmodel.RunSeed(11, 2)
	fake := Tier{
		Name:     "fake",
		Supports: func(policy.ID) bool { return true },
		Simulate: func(id policy.ID, plat platform.Config, seed uint64) stats.RunResult {
			if seed == badSeed {
				panic("planted tier crash")
			}
			return stats.RunResult{WallSeconds: float64(seed % 97)}
		},
	}
	plat := platform.Config{App: workload.App{Name: "fakeapp", Nodes: 4, TotalCkptGB: 4, ComputeHours: 1}}
	agg := SimulateTierN(fake, policy.P2, plat, 6, 11, 3)
	if agg.N() != 5 {
		t.Fatalf("completed runs = %d, want 5", agg.N())
	}
	failed := agg.Failed()
	if len(failed) != 1 {
		t.Fatalf("failed ledger has %d entries, want 1", len(failed))
	}
	f := failed[0]
	if f.Seed != badSeed || !strings.Contains(f.Err, "planted tier crash") {
		t.Fatalf("failure misattributed: %+v", f)
	}
	for _, want := range []string{"tier=fake", "model=P2", "app=fakeapp"} {
		if !strings.Contains(f.Config, want) {
			t.Errorf("ledger config %q missing %q", f.Config, want)
		}
	}
}

// TestSimulateTierNEdgeCases pins the pool plumbing around the sweep:
// zero runs yield an empty aggregate without deadlock, a worker count
// above n clamps instead of idling goroutines on a closed channel, and a
// panic in the LAST seed still lands in the ledger (the final channel
// send must not race the drain).
func TestSimulateTierNEdgeCases(t *testing.T) {
	plat := platform.Config{App: workload.App{Name: "fakeapp", Nodes: 4, TotalCkptGB: 4, ComputeHours: 1}}
	ok := Tier{
		Name:     "fake",
		Supports: func(policy.ID) bool { return true },
		Simulate: func(id policy.ID, plat platform.Config, seed uint64) stats.RunResult {
			return stats.RunResult{WallSeconds: float64(seed % 97)}
		},
	}

	if agg := SimulateTierN(ok, policy.B, plat, 0, 7, 4); agg.N() != 0 || len(agg.Failed()) != 0 {
		t.Fatalf("n=0: got %d runs, %d failures, want an empty aggregate", agg.N(), len(agg.Failed()))
	}

	if agg := SimulateTierN(ok, policy.B, plat, 2, 7, 16); agg.N() != 2 {
		t.Fatalf("workers>n: got %d runs, want 2", agg.N())
	}

	lastSeed := crmodel.RunSeed(7, 5)
	crashLast := ok
	crashLast.Simulate = func(id policy.ID, plat platform.Config, seed uint64) stats.RunResult {
		if seed == lastSeed {
			panic("last-seed crash")
		}
		return stats.RunResult{}
	}
	agg := SimulateTierN(crashLast, policy.B, plat, 6, 7, 2)
	if agg.N() != 5 || len(agg.Failed()) != 1 {
		t.Fatalf("last-seed crash: %d runs + %d failures, want 5 + 1", agg.N(), len(agg.Failed()))
	}
	if f := agg.Failed()[0]; f.Seed != lastSeed || !strings.Contains(f.Err, "last-seed crash") {
		t.Fatalf("last-seed crash misattributed: %+v", f)
	}
}

// TestSimulateTierNLedgersWatchdog wires the two safety rails together:
// a livelocked simulation trips the step engine's watchdog, and the
// pool's recover converts that panic into a ledger entry — naming the
// stuck event — instead of hanging or killing the sweep.
func TestSimulateTierNLedgersWatchdog(t *testing.T) {
	stuckSeed := crmodel.RunSeed(7, 0)
	livelock := Tier{
		Name:     "livelock",
		Supports: func(policy.ID) bool { return true },
		Simulate: func(id policy.ID, plat platform.Config, seed uint64) stats.RunResult {
			if seed != stuckSeed {
				return stats.RunResult{WallSeconds: 1}
			}
			eng := stepsim.NewEngine()
			eng.SetWatchdog(100, 0)
			var spin func()
			spin = func() { eng.AtNamed(0, "spin", spin) }
			eng.AtNamed(0, "spin", spin)
			eng.RunAll()
			return stats.RunResult{}
		},
	}
	plat := platform.Config{App: workload.App{Name: "fakeapp", Nodes: 4, TotalCkptGB: 4, ComputeHours: 1}}
	agg := SimulateTierN(livelock, policy.B, plat, 2, 7, 1)
	if agg.N() != 1 || len(agg.Failed()) != 1 {
		t.Fatalf("runs=%d failed=%d, want 1/1", agg.N(), len(agg.Failed()))
	}
	if f := agg.Failed()[0]; f.Seed != stuckSeed || !strings.Contains(f.Err, "watchdog") || !strings.Contains(f.Err, "spin") {
		t.Fatalf("watchdog diagnostic lost in the ledger: %+v", f)
	}
}

// TestSimulateTierNWorkerCountIndependent: the pool's per-seed results
// do not depend on how many workers ran them — the invariant the result
// cache relies on when it keys configurations without Workers.
func TestSimulateTierNWorkerCountIndependent(t *testing.T) {
	plat := platform.Config{
		App:    workload.App{Name: "crossval-48", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24},
		System: failure.Titan,
	}
	par := SimulateTierN(StepTier(), policy.P2, plat, 16, 9, 8)
	seq := SimulateTierN(StepTier(), policy.P2, plat, 16, 9, 1)
	if par.N() != 16 || seq.N() != 16 {
		t.Fatalf("run counts wrong: %d / %d", par.N(), seq.N())
	}
	if !reflect.DeepEqual(par.Runs(), seq.Runs()) {
		t.Fatal("per-seed results differ between 8 workers and 1")
	}
}

// TestSimulateMeteredNMatchesUnmetered: metering changes no result, the
// merged snapshot is independent of the worker count, its series agree
// with the runs they describe, and zero runs yield an empty aggregate
// and snapshot.
func TestSimulateMeteredNMatchesUnmetered(t *testing.T) {
	plat := platform.Config{
		App:    workload.App{Name: "crossval-48", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24},
		System: failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48},
	}
	plain := SimulateTierN(StepTier(), policy.P2, plat, 8, 17, 4)
	metered, snap := SimulateMeteredN(policy.P2, plat, 8, 17, 4)
	if !reflect.DeepEqual(plain.Runs(), metered.Runs()) {
		t.Fatal("metering changed the per-seed results")
	}
	if _, snap1 := SimulateMeteredN(policy.P2, plat, 8, 17, 1); !reflect.DeepEqual(snap, snap1) {
		t.Fatal("merged snapshot depends on the worker count")
	}
	// Every handled failure observes exactly one recovery span.
	failures := 0
	for _, r := range metered.Runs() {
		failures += r.Failures
	}
	if failures == 0 {
		t.Fatal("no failures in the metered runs; the recovery check is vacuous")
	}
	if rec := snap.Histograms["sim.P2.recovery_seconds"]; int(rec.Count) != failures {
		t.Fatalf("recovery_seconds count %d != %d failures", int(rec.Count), failures)
	}
	if bw := snap.Histograms["sim.P2.bb_write_seconds"]; bw.Count == 0 {
		t.Fatal("no BB write spans recorded")
	}
	if g, ok := snap.Gauges["sim.P2.drain_queue_depth"]; !ok || g.Max < 1 {
		t.Fatalf("drain queue depth gauge missing or flat: %+v", g)
	}

	agg, empty := SimulateMeteredN(policy.B, plat, 0, 1, 1)
	if agg.N() != 0 || !empty.Empty() {
		t.Fatalf("zero runs: n=%d empty=%v", agg.N(), empty.Empty())
	}
}

// TestRunConfigMeteredCrossCheck: metered sweeps are audited like
// unmetered ones — a sweep tier that drifts from the reference on a
// sampled seed panics the metered configuration instead of collecting
// its snapshot.
func TestRunConfigMeteredCrossCheck(t *testing.T) {
	orig := sweepTier
	defer func() { sweepTier = orig }()
	sweepTier = func() Tier {
		drift := StepTier()
		drift.Name = "fake-drift"
		drift.Simulate = func(id policy.ID, plat platform.Config, seed uint64) stats.RunResult {
			r := stepsim.Simulate(stepsim.Config{Model: id, Config: plat}, seed)
			r.WallSeconds++
			return r
		}
		return drift
	}
	app := workload.App{Name: "tiny", Nodes: 16, TotalCkptGB: 160, ComputeHours: 10}
	cfg := crmodel.Config{Model: crmodel.ModelP1, Config: platform.Config{App: app, System: failure.Titan}}
	p := Params{Runs: 4, Seed: 1, SeedSet: true, Workers: 2, Metrics: metrics.NewCollector()}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("metered runConfig passed a drifted tier")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "fake-drift") || !strings.Contains(msg, "diverged") {
			t.Fatalf("divergence panic %q lacks the tier diagnostic", msg)
		}
	}()
	runConfig(p, cfg, "metered-drift")
}

// TestRunTierCacheKeysDistinct plants three same-named-everything-else
// tiers against one cache directory: each tier's aggregate must resolve
// from its own entry, so registering a third tier cannot silently serve
// another tier's cached results.
func TestRunTierCacheKeysDistinct(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plat := platform.Config{App: workload.App{Name: "fakeapp", Nodes: 4, TotalCkptGB: 4, ComputeHours: 1}}
	p := Params{Runs: 3, Seed: 9, SeedSet: true, Workers: 1, Experiment: "cachetest", Cache: store}

	calls := map[string]int{}
	mk := func(name string, wall float64) Tier {
		return Tier{
			Name:     name,
			Supports: func(policy.ID) bool { return true },
			Simulate: func(id policy.ID, plat platform.Config, seed uint64) stats.RunResult {
				calls[name]++
				return stats.RunResult{WallSeconds: wall}
			},
		}
	}
	tiers := []Tier{mk("alpha", 100), mk("beta", 200), mk("gamma", 300)}
	for pass := 0; pass < 2; pass++ {
		for i, tr := range tiers {
			agg := runTier(p, tr, policy.B, plat, 3, p.Seed)
			if want := float64((i + 1) * 100); agg.MeanWallSeconds() != want {
				t.Fatalf("pass %d tier %s: mean wall %.0f, want %.0f (cache key collision)",
					pass, tr.Name, agg.MeanWallSeconds(), want)
			}
		}
	}
	for name, n := range calls {
		if n != 3 {
			t.Errorf("tier %s simulated %d seeds, want 3 (second pass must be a cache hit)", name, n)
		}
	}
}

// TestTierRegistry pins the registry shape consumers rely on: the
// reference tier leads, names are unique, and TierByName round-trips
// every entry.
func TestTierRegistry(t *testing.T) {
	ts := Tiers()
	if len(ts) != 3 || ts[0].Name != "app" {
		t.Fatalf("Tiers() = %v, want app-led registry of 3", TierNames())
	}
	seen := map[string]bool{}
	for _, tr := range ts {
		if seen[tr.Name] {
			t.Fatalf("duplicate tier name %q", tr.Name)
		}
		seen[tr.Name] = true
		got, ok := TierByName(tr.Name)
		if !ok || got.Name != tr.Name {
			t.Fatalf("TierByName(%q) = (%v, %t)", tr.Name, got.Name, ok)
		}
	}
	if _, ok := TierByName("bogus"); ok {
		t.Fatal("TierByName resolved an unknown name")
	}
	want := map[string][]bool{
		// per policy.All() order: B, M1, M2, P1, P2
		"app":  {true, true, true, true, true},
		"node": {true, false, false, true, true},
		"step": {true, true, true, true, true},
	}
	for _, tr := range ts {
		for i, id := range policy.All() {
			if got := tr.Supports(id); got != want[tr.Name][i] {
				t.Errorf("%s.Supports(%v) = %t, want %t", tr.Name, id, got, want[tr.Name][i])
			}
		}
	}
}

// TestSweepTierDefaults pins the sweep-path routing: sweeps run on the
// step tier, and the cross-check stride defaults, overrides, and
// disables as documented.
func TestSweepTierDefaults(t *testing.T) {
	if got := sweepTier(); got.Name != "step" {
		t.Errorf("sweep tier = %q, want step", got.Name)
	}
	if got := (Params{}).crossCheckStride(); got != DefaultCrossCheckStride {
		t.Errorf("default cross-check stride = %d, want %d", got, DefaultCrossCheckStride)
	}
	if got := (Params{CrossCheckStride: 5}).crossCheckStride(); got != 5 {
		t.Errorf("explicit cross-check stride = %d, want 5", got)
	}
	if got := (Params{CrossCheckStride: -1}).crossCheckStride(); got != 0 {
		t.Errorf("negative cross-check stride = %d, want 0 (disabled)", got)
	}
}

// TestSimulateSweepNCrossCheck plants a fake tier that silently drifts
// from the reference on one sampled seed: the sweep must panic with a
// diagnostic naming both tiers, not return the drifted aggregate. A
// matching result on every sampled seed must pass, and stride <= 0 must
// skip the cross-check entirely.
func TestSimulateSweepNCrossCheck(t *testing.T) {
	plat := platform.Config{
		App:    workload.App{Name: "crossval-48", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24},
		System: failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48},
	}
	honest := StepTier()
	honest.Name = "fake-honest"
	if agg := SimulateSweepN(honest, policy.P1, plat, 4, 3, 2, 2); agg.N() != 4 {
		t.Fatalf("honest tier: %d runs, want 4", agg.N())
	}

	driftSeed := crmodel.RunSeed(3, 2)
	drift := StepTier()
	drift.Name = "fake-drift"
	drift.Simulate = func(id policy.ID, plat platform.Config, seed uint64) stats.RunResult {
		r := stepsim.Simulate(stepsim.Config{Model: id, Config: plat}, seed)
		if seed == driftSeed {
			r.WallSeconds++
		}
		return r
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("drifted tier passed the cross-check")
			}
			msg := fmt.Sprint(r)
			for _, frag := range []string{"fake-drift", "diverged", "app"} {
				if !strings.Contains(msg, frag) {
					t.Errorf("divergence panic %q lacks %q", msg, frag)
				}
			}
		}()
		SimulateSweepN(drift, policy.P1, plat, 4, 3, 2, 2)
	}()

	// stride 3 samples indices 0 and 3 only — the drift at index 2 is
	// never compared, so the sweep completes; stride 0 skips outright.
	if agg := SimulateSweepN(drift, policy.P1, plat, 4, 3, 2, 3); agg.N() != 4 {
		t.Fatalf("unsampled drift: %d runs, want 4", agg.N())
	}
	if agg := SimulateSweepN(drift, policy.P1, plat, 4, 3, 2, 0); agg.N() != 4 {
		t.Fatalf("stride 0: %d runs, want 4", agg.N())
	}
}

// TestSimulateSweepNChecksPooledRuns pins that the cross-check compares
// the results the pool already computed: the sweep tier simulates every
// seed exactly once, sampled seeds included, and a sampled seed that
// panicked in the pool but not on the reference is a divergence even
// though a re-run would have succeeded.
func TestSimulateSweepNChecksPooledRuns(t *testing.T) {
	plat := platform.Config{
		App:    workload.App{Name: "crossval-48", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24},
		System: failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48},
	}
	var calls atomic.Int64
	counting := StepTier()
	counting.Name = "fake-counting"
	counting.Simulate = func(id policy.ID, plat platform.Config, seed uint64) stats.RunResult {
		calls.Add(1)
		return stepsim.Simulate(stepsim.Config{Model: id, Config: plat}, seed)
	}
	if agg := SimulateSweepN(counting, policy.P1, plat, 8, 3, 2, 2); agg.N() != 8 {
		t.Fatalf("counting tier: %d runs, want 8", agg.N())
	}
	if got := calls.Load(); got != 8 {
		t.Fatalf("sweep tier simulated %d times for 8 seeds, want 8 (no cross-check re-runs)", got)
	}

	// Panics on the first call per seed only: a re-run would pass.
	var flaked sync.Map
	flaky := StepTier()
	flaky.Name = "fake-flaky"
	flaky.Simulate = func(id policy.ID, plat platform.Config, seed uint64) stats.RunResult {
		if _, again := flaked.LoadOrStore(seed, true); !again {
			panic("flaky first run")
		}
		return stepsim.Simulate(stepsim.Config{Model: id, Config: plat}, seed)
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "fake-flaky") || !strings.Contains(msg, "flaky first run") {
			t.Fatalf("one-sided pooled panic not reported as a divergence: %q", msg)
		}
	}()
	SimulateSweepN(flaky, policy.P1, plat, 4, 3, 2, 2)
}

// TestBadAppFilterPanicsWithContext pins the harness-hardening change to
// the app-filter resolution: an unknown application must surface a
// contextualised error, not a bare workload lookup failure.
func TestBadAppFilterPanicsWithContext(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unknown app filter did not panic")
		}
		if !strings.Contains(strings.ToLower(fmt.Sprint(r)), "bad app filter") {
			t.Fatalf("panic %v lacks app-filter context", r)
		}
	}()
	Params{Apps: []string{"NOT-AN-APP"}}.apps()
}
