// Package experiments defines one runnable experiment per table and
// figure of the paper's evaluation, wiring the workload catalogue, the
// failure stack, and the C/R models together and rendering the same rows
// and series the paper reports. The cmd/experiments binary and the
// repository's benchmark suite are thin wrappers over this package.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"pckpt/internal/crmodel"
	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/runcache"
	"pckpt/internal/stats"
	"pckpt/internal/workload"
)

// Params controls experiment execution.
type Params struct {
	// Runs is the number of simulation runs averaged per configuration
	// (the paper uses 1000; the default here is 200, which reproduces
	// every qualitative result in a fraction of the time).
	Runs int
	// Seed is the base seed; every configuration derives its own. The
	// zero value selects 42 unless SeedSet says zero was meant.
	Seed uint64
	// SeedSet marks Seed as explicitly chosen, so Seed == 0 simulates
	// with base seed 0 instead of the default 42.
	SeedSet bool
	// Workers bounds the worker pool (default: GOMAXPROCS).
	Workers int
	// Apps restricts the applications simulated (names from the Table I
	// catalogue); empty means the experiment's own default set.
	Apps []string
	// Tiers restricts the non-reference simulation tiers cross-validated
	// against the app-level model (names from the Tiers() registry);
	// empty means every registered tier. Experiments that run a single
	// tier ignore it.
	Tiers []string
	// Metrics, when non-nil, collects merged simulation-metric snapshots
	// across every configuration the experiment runs (see
	// internal/metrics). Metering adds per-run registries but keeps the
	// simulation hot path allocation-free.
	Metrics *metrics.Collector
	// Cache, when non-nil, is consulted before every configuration is
	// simulated and receives every freshly simulated aggregate, making
	// sweeps resumable (see internal/runcache). Cache keys exclude
	// Workers (results are worker-count independent) and the Apps/Tiers
	// filters (a filter selects configurations, it does not change any
	// one configuration's identity).
	Cache *runcache.Store
	// Experiment namespaces cache keys with the registry ID. Run stamps
	// it; leave empty when calling a Def's Run function directly and the
	// cache will key under the experiment-agnostic "" namespace.
	Experiment string
	// Faults, when enabled, injects degraded-platform faults into every
	// configuration an experiment runs (cmd/experiments -inject-* flags).
	// The injection rates participate in the platform cache key, so
	// degraded sweeps never collide with clean ones; the zero value
	// leaves every experiment bit-identical to an injection-free build.
	Faults faultinject.Config
	// MachineFaults, when enabled, arms the machine-scope fault plan
	// (PFS brownouts, drain-slot outages, tenant crashes, starvation
	// watchdog) for the shared-machine experiments (cmd/experiments
	// -machine-* flags). Only contention and machine-degraded honour it;
	// neither is cached, so the plan needs no cache-key plumbing.
	MachineFaults faultinject.MachineConfig
	// CrossCheckStride re-runs every Nth seed of a sweep configuration on
	// the reference tier and compares bit for bit (see SimulateSweepN).
	// Zero selects DefaultCrossCheckStride; negative disables the
	// cross-check.
	CrossCheckStride int
	// Interrupt, when non-nil, aborts the sweep at the next
	// configuration boundary once closed: already-cached configurations
	// still resolve, the first un-cached one panics with ErrInterrupted
	// (recovered by Run). Completed configurations are already flushed
	// to Cache, so a rerun resumes at the unfinished tail.
	Interrupt <-chan struct{}
}

func (p Params) withDefaults() Params {
	if p.Runs <= 0 {
		p.Runs = 200
	}
	if p.Seed == 0 && !p.SeedSet {
		p.Seed = 42
	}
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	return p
}

// Result is one experiment's rendered output.
type Result struct {
	// ID is the registry key ("fig6a", "table2", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Text is the rendered table/figure.
	Text string
	// Values holds machine-readable headline numbers keyed by a short
	// label, letting tests assert the paper's qualitative claims without
	// parsing Text.
	Values map[string]float64
}

// Def is a registry entry.
type Def struct {
	ID    string
	Title string
	Run   func(Params) Result
}

// All returns the experiment registry in the paper's presentation order.
func All() []Def {
	return []Def{
		{"table1", "Table I: HPC workload characteristics", Table1},
		{"table3", "Table III: Weibull distributions for failure generation", Table3},
		{"fig2a", "Fig. 2a: failure prediction lead time distribution (mined)", Fig2a},
		{"fig2b", "Fig. 2b: single-node I/O bandwidth vs task count", Fig2b},
		{"fig2c", "Fig. 2c: weak-scaling I/O performance matrix", Fig2c},
		{"fig4", "Fig. 4: lead-time variability impact on M1/M2", Fig4},
		{"table2", "Table II: FT ratio for applications under M1 and M2", Table2},
		{"fig6a", "Fig. 6a: overhead by model, OLCF Titan distribution", Fig6a},
		{"fig6b", "Fig. 6b: overhead by model, LANL System 18 distribution", Fig6b},
		{"fig6sys8", "Fig. 6 (text): overhead by model, LANL System 8 distribution", Fig6System8},
		{"fig6c", "Fig. 6c: LM transfer size sweep (M2-α vs P1)", Fig6c},
		{"fig7", "Fig. 7: lead-time variability impact on P1/P2", Fig7},
		{"table4", "Table IV: FT ratio for applications under P1 and P2", Table4},
		{"fig8", "Fig. 8: FT-ratio difference, LM vs p-ckpt in P2", Fig8},
		{"obs9", "Observation 9: false-negative-rate sensitivity", Obs9},
		{"obs9fix", "Extension: accuracy-aware σ in Eq. (2) (paper's future work)", Obs9Fix},
		{"globalview", "Extension: p-ckpt with a global system view (paper's out-of-scope item)", GlobalView},
		{"analytic", "Observation 8: analytical LM vs p-ckpt model (Eqs. 4-8)", Analytic},
		{"crossval", "Cross-validation: app-level reference vs node-granular and step tiers on matched seeds", CrossValidation},
		{"degraded", "Extension: degraded platform — injected write failures, corruption, restart retries", Degraded},
		{"scenario", "Extension: declarative scenario specs — cohorts, platforms, failure-trace replay", Scenario},
		{"contention", "Extension: multi-tenant contention — shared PFS bandwidth arbitration and admission", Contention},
		{"machine-degraded", "Extension: machine-scope fault domains — PFS brownouts, tenant crashes with requeue, bounded-starvation degradation", MachineDegraded},
	}
}

// ByID looks an experiment up.
func ByID(id string) (Def, error) {
	for _, d := range All() {
		if d.ID == id {
			return d, nil
		}
	}
	return Def{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// apps resolves the Params app filter against a default set.
func (p Params) apps(defaults ...string) []workload.App {
	names := p.Apps
	if len(names) == 0 {
		names = defaults
	}
	if len(names) == 0 {
		names = workload.Names()
	}
	out := make([]workload.App, 0, len(names))
	for _, n := range names {
		a, err := workload.ByName(n)
		if err != nil {
			panic(fmt.Errorf("experiments: bad app filter: %w", err))
		}
		out = append(out, a)
	}
	return out
}

// sweepTier is the tier every experiment sweep simulates on, audited
// against the app-level reference by the sampled cross-check. It is a
// variable only so tests can plant a drifting tier.
var sweepTier = StepTier

// crossCheckStride resolves the Params cross-check density: the default
// stride when unset, disabled when negative.
func (p Params) crossCheckStride() int {
	switch {
	case p.CrossCheckStride == 0:
		return DefaultCrossCheckStride
	case p.CrossCheckStride < 0:
		return 0
	}
	return p.CrossCheckStride
}

// configSeed derives a deterministic per-configuration seed from the base
// seed and a label, so adding configurations never perturbs others.
func configSeed(base uint64, label string) uint64 {
	h := base ^ 0xcbf29ce484222325
	for _, c := range label {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// runConfig resolves one (model, app, …) configuration: from the cache
// when possible, by simulation otherwise (metering into p.Metrics when
// collection is on, and flushing the fresh aggregate back to the cache).
// Metered or not, the configuration runs on the step tier with the app
// tier sampled as a bit-identity cross-check (see SimulateSweepN). The
// metered pass runs the step engine with metrics on rather than the sweep
// tier's Simulate, so there the sampled seeds are re-run on the sweep
// tier to audit it.
func runConfig(p Params, cfg crmodel.Config, label string) *stats.Agg {
	if p.Faults.Enabled() && !cfg.Faults.Enabled() {
		cfg.Faults = p.Faults
	}
	key := p.cacheKey(label, cfg.Model, cfg.Config, p.Runs)
	if agg, ok := p.cacheGet(key, p.Metrics != nil); ok {
		return agg
	}
	p.checkInterrupt()
	seed := configSeed(p.Seed, label)
	t := sweepTier()
	var agg *stats.Agg
	var snap *metrics.Snapshot
	stride := p.crossCheckStride()
	if p.Metrics == nil {
		agg = SimulateSweepN(t, cfg.Model, cfg.Config, p.Runs, seed, p.Workers, stride)
	} else {
		agg, snap = SimulateMeteredN(cfg.Model, cfg.Config, p.Runs, seed, p.Workers)
		p.Metrics.Add(snap)
		if stride > 0 {
			sampledRuns(t, cfg.Model, cfg.Config, p.Runs, seed, stride).crossCheck(t.Name, AppTier(), cfg.Model, cfg.Config, stride)
		}
	}
	p.cachePut(key, agg, snap)
	return agg
}

// modelSet runs several models on one app/system/lead-scale and returns
// the aggregates keyed by model.
func modelSet(p Params, app workload.App, sys failure.System, leadScale float64, fnRate float64, models []crmodel.Model) map[crmodel.Model]*stats.Agg {
	out := make(map[crmodel.Model]*stats.Agg, len(models))
	for _, m := range models {
		label := fmt.Sprintf("%s|%s|%s|ls=%.3f|fn=%.3f", app.Name, sys.Name, m, leadScale, fnRate)
		cfg := crmodel.Config{
			Model: m,
			Config: platform.Config{
				App:       app,
				System:    sys,
				LeadScale: leadScale,
				FNRate:    fnRate,
			},
		}
		out[m] = runConfig(p, cfg, label)
	}
	return out
}

// leadScales is the ±50 % variability axis of Figs. 4 and 7 / Tables II
// and IV.
var leadScales = []float64{1.5, 1.1, 1.0, 0.9, 0.5}

// leadScaleLabel renders a scale as the paper's percent-change notation.
func leadScaleLabel(s float64) string {
	pct := (s - 1) * 100
	switch {
	case pct > 0:
		return fmt.Sprintf("+%.0f%%", pct)
	case pct < 0:
		return fmt.Sprintf("%.0f%%", pct)
	default:
		return "0%"
	}
}

// sortedKeys returns map keys in sorted order for deterministic output.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// RenderResultValues renders a Result's machine-readable values as an
// aligned key/value listing (used by cmd/experiments -values).
func RenderResultValues(r Result) string {
	var b strings.Builder
	for _, k := range sortedKeys(r.Values) {
		fmt.Fprintf(&b, "  %-48s %12.4g\n", k, r.Values[k])
	}
	return b.String()
}
