package crmodel_test

// crmodel keeps no worker pool of its own: sweeps of the reference model
// run through internal/experiments' pool on the app tier. These tests pin
// what that pool owes crmodel runs — crash ledgering, empty sweeps, and
// metering that changes no result.

import (
	"reflect"
	"strings"
	"testing"

	"pckpt/internal/crmodel"
	"pckpt/internal/experiments"
	"pckpt/internal/failure"
	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/workload"
)

var (
	poolSmallApp = workload.App{Name: "tiny", Nodes: 16, TotalCkptGB: 160, ComputeHours: 10}
	poolQuiet    = failure.System{Name: "quiet", Shape: 1, ScaleHours: 4000, Nodes: 16}
	poolFailApp  = workload.App{Name: "faily", Nodes: 2000, TotalCkptGB: 2000, ComputeHours: 200}
)

// TestPanickingRunBecomesFailedRun plants a crashing run in the middle of
// a crmodel sweep and checks the sweep still completes, with the failure
// ledgered against the exact seed.
func TestPanickingRunBecomesFailedRun(t *testing.T) {
	badSeed := crmodel.RunSeed(42, 3)
	tier := experiments.AppTier()
	orig := tier.Simulate
	tier.Simulate = func(id policy.ID, plat platform.Config, seed uint64) stats.RunResult {
		if seed == badSeed {
			panic("planted crash")
		}
		return orig(id, plat, seed)
	}
	plat := platform.Config{App: poolSmallApp, System: poolQuiet}
	agg := experiments.SimulateTierN(tier, crmodel.ModelB, plat, 8, 42, 4)
	if agg.N() != 7 {
		t.Fatalf("completed runs = %d, want 7", agg.N())
	}
	failed := agg.Failed()
	if len(failed) != 1 {
		t.Fatalf("failed ledger has %d entries, want 1", len(failed))
	}
	f := failed[0]
	if f.Seed != badSeed || !strings.Contains(f.Err, "planted crash") || !strings.Contains(f.Config, "model=B") {
		t.Fatalf("failed run misreported: %+v", f)
	}
	// The surviving runs are exactly crmodel's own, seed for seed.
	var want []stats.RunResult
	for i := 0; i < 8; i++ {
		if i != 3 {
			want = append(want, crmodel.Simulate(crmodel.Config{Model: crmodel.ModelB, Config: plat}, crmodel.RunSeed(42, i)))
		}
	}
	if !reflect.DeepEqual(agg.Runs(), want) {
		t.Fatal("surviving runs differ from crmodel.Simulate on the same seeds")
	}
}

func TestSimulateNZeroRuns(t *testing.T) {
	if agg := experiments.SimulateTierN(experiments.AppTier(), crmodel.ModelB, platform.Config{}, 0, 1, 4); agg.N() != 0 {
		t.Fatal("zero runs must return an empty aggregate")
	}
}

// TestSimulateNMeteredMatchesUnmetered: a metered crmodel run returns the
// same result as an unmetered one, its series agree with the runs they
// describe, and the seed-order merge of crmodel's per-run snapshots is
// the snapshot the metered sweep pool produces.
func TestSimulateNMeteredMatchesUnmetered(t *testing.T) {
	const n, base = 8, 17
	plat := platform.Config{App: poolFailApp, System: failure.Titan}
	plain := experiments.SimulateTierN(experiments.AppTier(), crmodel.ModelP2, plat, n, base, 4)
	snap := &metrics.Snapshot{}
	failures := 0
	for i := 0; i < n; i++ {
		reg := metrics.New()
		r := crmodel.Simulate(crmodel.Config{Model: crmodel.ModelP2, Config: plat, Metrics: reg}, crmodel.RunSeed(base, i))
		if r != plain.Runs()[i] {
			t.Fatalf("run %d diverged under metering", i)
		}
		snap.Merge(reg.Snapshot(r.WallSeconds))
		failures += r.Failures
	}
	if snap.Empty() {
		t.Fatal("metered crmodel runs returned an empty snapshot")
	}
	// Every handled failure observes exactly one recovery span.
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
	if _, pooled := experiments.SimulateMeteredN(crmodel.ModelP2, plat, n, base, 2); !reflect.DeepEqual(snap, pooled) {
		t.Fatal("metered sweep pool's snapshot differs from crmodel's own per-run snapshots")
	}
}

func TestSimulateNMeteredZeroRuns(t *testing.T) {
	agg, snap := experiments.SimulateMeteredN(crmodel.ModelB, platform.Config{}, 0, 1, 1)
	if agg.N() != 0 || !snap.Empty() {
		t.Fatalf("zero runs: n=%d empty=%v", agg.N(), snap.Empty())
	}
}
