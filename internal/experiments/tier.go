package experiments

import (
	"fmt"
	"sync"

	"pckpt/internal/crmodel"
	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/stepsim"
)

// Tier is one simulation granularity the experiment runner can drive:
// the application-level reference model (internal/crmodel) or the
// step-based tier-0 engine (internal/stepsim). Both consume the shared
// platform configuration and implement the full policy catalogue, so a
// sweep is written once and runs on either; the runner, cache, and
// cross-validation machinery key on Name.
type Tier struct {
	// Name labels the tier in tables and cache keys ("app" / "step").
	Name string
	// Simulate runs one seed of the model on the shared platform config.
	Simulate func(id policy.ID, plat platform.Config, seed uint64) stats.RunResult
}

// AppTier is the application-granularity reference tier.
func AppTier() Tier {
	return Tier{
		Name: "app",
		Simulate: func(id policy.ID, plat platform.Config, seed uint64) stats.RunResult {
			return crmodel.Simulate(crmodel.Config{Model: id, Config: plat}, seed)
		},
	}
}

// StepTier is the tier-0 step-based engine; it implements the full
// five-model catalogue — p-ckpt episodes included — and is bit-identical
// to the app tier on shared failure streams — same RunResult, not just
// agreeing statistics (crossval enforces this). It is the sweep tier,
// metered (SimulateMeteredN) or not; the app tier rides along as a
// sampled cross-check (see SimulateSweepN).
func StepTier() Tier {
	return Tier{
		Name: "step",
		Simulate: func(id policy.ID, plat platform.Config, seed uint64) stats.RunResult {
			return stepsim.Simulate(stepsim.Config{Model: id, Config: plat}, seed)
		},
	}
}

// runTier is SimulateTierN behind the result cache: the tier name joins
// the per-configuration label so the two granularities of one catalogue
// entry never collide, and a fresh aggregate is flushed back to the
// cache (tier runs are never metered, so no snapshot is stored or
// required).
func runTier(p Params, t Tier, id policy.ID, plat platform.Config, n int, baseSeed uint64) *stats.Agg {
	if p.Faults.Enabled() && !plat.Faults.Enabled() {
		plat.Faults = p.Faults
	}
	key := p.cacheKey("tier="+t.Name, id, plat, n)
	key.Seed = baseSeed
	if agg, ok := p.cacheGet(key, false); ok {
		return agg
	}
	p.checkInterrupt()
	agg := SimulateTierN(t, id, plat, n, baseSeed, p.Workers)
	p.cachePut(key, agg, nil)
	return agg
}

// SimulateTierN runs n seeds of one catalogue entry on a tier, drawing
// the identical crmodel.RunSeed sequence on every tier, so per-seed
// results are comparable across tiers. Results aggregate in seed order
// regardless of worker interleaving. A run that panics — a model bug, or
// the sim watchdog killing a livelock — lands in the aggregate's
// failed-run ledger instead of aborting the sweep.
func SimulateTierN(t Tier, id policy.ID, plat platform.Config, n int, baseSeed uint64, workers int) *stats.Agg {
	return tierRuns(t, id, plat, n, baseSeed, workers).aggregate(t.Name, id, plat)
}

// tierRuns is SimulateTierN's pool pass, before aggregation.
func tierRuns(t Tier, id policy.ID, plat platform.Config, n int, baseSeed uint64, workers int) pooled {
	return simulatePool(n, baseSeed, workers, func(_ int, seed uint64) stats.RunResult {
		return t.Simulate(id, plat, seed)
	})
}

// SimulateMeteredN is SimulateTierN on the step tier with the metrics
// subsystem on: every run records into its own private registry (no
// locks touch the simulation hot path), and the per-run snapshots are
// merged in seed order into a snapshot that is independent of the
// worker count. Failed runs contribute no snapshot.
func SimulateMeteredN(id policy.ID, plat platform.Config, n int, baseSeed uint64, workers int) (*stats.Agg, *metrics.Snapshot) {
	snaps := make([]*metrics.Snapshot, n)
	agg := simulatePool(n, baseSeed, workers, func(i int, seed uint64) stats.RunResult {
		reg := metrics.New()
		r := stepsim.Simulate(stepsim.Config{Model: id, Config: plat, Metrics: reg}, seed)
		snaps[i] = reg.Snapshot(r.WallSeconds)
		return r
	}).aggregate(StepTier().Name, id, plat)
	merged := &metrics.Snapshot{}
	for _, s := range snaps {
		merged.Merge(s)
	}
	return agg, merged
}

// pooled is one pool pass: per seed index i (seed
// crmodel.RunSeed(baseSeed, i)), the run's result, or the panic that
// ended it.
type pooled struct {
	baseSeed uint64
	results  []stats.RunResult
	fails    []string
}

// simulatePool is the worker pool behind every runner: run(i, seed)
// executes seed index i under a recover guard and results land in
// per-index slots, so the only coordination is the work channel and the
// final WaitGroup.
func simulatePool(n int, baseSeed uint64, workers int, run func(i int, seed uint64) stats.RunResult) pooled {
	if workers <= 0 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	out := pooled{baseSeed: baseSeed, results: make([]stats.RunResult, n), fails: make([]string, n)}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out.results[i], out.fails[i] = runSafe(func() stats.RunResult {
					return run(i, crmodel.RunSeed(baseSeed, i))
				})
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// runSafe runs one simulation, turning a panic into its message.
func runSafe(run func() stats.RunResult) (r stats.RunResult, failure string) {
	defer func() {
		if p := recover(); p != nil {
			failure = fmt.Sprint(p)
		}
	}()
	return run(), ""
}

// aggregate builds the pass's aggregate in seed order, ledgering each
// panicked run against its seed.
func (p pooled) aggregate(tier string, id policy.ID, plat platform.Config) *stats.Agg {
	agg := &stats.Agg{}
	desc := fmt.Sprintf("tier=%s model=%s app=%s", tier, id, plat.App.Name)
	for i, r := range p.results {
		if p.fails[i] != "" {
			agg.AddFailed(stats.FailedRun{Seed: crmodel.RunSeed(p.baseSeed, i), Config: desc, Err: p.fails[i]})
			continue
		}
		agg.Add(r)
	}
	return agg
}

// DefaultCrossCheckStride is the sampled cross-check density sweeps use
// unless overridden: one in every 16 seeds is re-run on the reference
// tier and compared bit for bit.
const DefaultCrossCheckStride = 16

// SimulateSweepN is SimulateTierN plus a sampled cross-check: every
// stride-th seed index is re-simulated on the reference (app) tier and
// compared bit for bit with the pooled result the aggregate is built
// from. It is the sweep path's runner — sweeps run on the step tier for
// speed, and the sampled reference runs keep the bit-identity contract
// continuously audited instead of trusted. A divergence panics with a
// full diagnostic: a tier that has drifted invalidates every cached
// aggregate it produced, so the sweep must not quietly continue.
// stride <= 0 disables the cross-check, as does running on the reference
// tier itself.
func SimulateSweepN(t Tier, id policy.ID, plat platform.Config, n int, baseSeed uint64, workers, stride int) *stats.Agg {
	runs := tierRuns(t, id, plat, n, baseSeed, workers)
	if ref := AppTier(); stride > 0 && t.Name != ref.Name {
		runs.crossCheck(t.Name, ref, id, plat, stride)
	}
	return runs.aggregate(t.Name, id, plat)
}

// sampledRuns runs only seed indices 0, stride, 2·stride, … of an n-seed
// pass on t, serially: the part of a pass crossCheck reads.
func sampledRuns(t Tier, id policy.ID, plat platform.Config, n int, baseSeed uint64, stride int) pooled {
	out := pooled{baseSeed: baseSeed, results: make([]stats.RunResult, n), fails: make([]string, n)}
	for i := 0; i < n; i += stride {
		out.results[i], out.fails[i] = runSafe(func() stats.RunResult {
			return t.Simulate(id, plat, crmodel.RunSeed(baseSeed, i))
		})
	}
	return out
}

// crossCheck compares the pass's results on seed indices 0, stride,
// 2·stride, … against ref and panics on the first bit difference. A run
// that panicked in the pass and panics on ref too is tolerated — the
// aggregate ledgers it as a failed run — but a panic on only one side is
// itself a divergence.
func (p pooled) crossCheck(tier string, ref Tier, id policy.ID, plat platform.Config, stride int) {
	for i := 0; i < len(p.results); i += stride {
		seed := crmodel.RunSeed(p.baseSeed, i)
		got, gotFail := p.results[i], p.fails[i]
		want, wantFail := runSafe(func() stats.RunResult { return ref.Simulate(id, plat, seed) })
		if gotFail != "" || wantFail != "" {
			if gotFail != "" && wantFail != "" {
				continue
			}
			panic(fmt.Sprintf("experiments: tier %q diverged from %q at run %d (seed %#x) model=%s app=%s: %q panic=%q, %q panic=%q",
				tier, ref.Name, i, seed, id, plat.App.Name, tier, gotFail, ref.Name, wantFail))
		}
		if got != want {
			panic(fmt.Sprintf("experiments: tier %q diverged from %q at run %d (seed %#x) model=%s app=%s\n%s: %+v\n%s: %+v",
				tier, ref.Name, i, seed, id, plat.App.Name, tier, got, ref.Name, want))
		}
	}
}
