package main

import (
	"embed"
	"fmt"
	"sort"
	"time"

	"pckpt/internal/crmodel"
	"pckpt/internal/experiments"
	"pckpt/internal/machine"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/scenario"
	"pckpt/internal/stats"
)

// The workloads' inputs are pinned here, not read from examples/, so
// editing an example never changes what the benchmark measures.
//
//go:embed specs/*.json
var specFS embed.FS

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// machine selects machine.SimulateN over the spec's machine block;
	// otherwise the spec's cohort × policy grid runs as sweeps through
	// experiments.SimulateSweepN.
	machine bool
	// mayTruncate marks a workload whose runs may legitimately end
	// truncated (crash retries exhausted under the fault plan). Elsewhere
	// a truncated run counts as failed.
	mayTruncate bool
}

var workloads = []workload{
	{name: "sweep-large"},
	{name: "sweep-small"},
	{name: "machine-contended", machine: true},
	{name: "machine-degraded", machine: true, mayTruncate: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w workload) spec() []byte {
	data, err := specFS.ReadFile("specs/" + w.name + ".json")
	if err != nil {
		panic(err) // every workload has an embedded spec
	}
	return data
}

// cell is one (application, policy) configuration of a sweep workload.
type cell struct {
	app     string
	id      policy.ID
	plat    platform.Config // defaulted: the I/O model is built once, in set-up
	derived platform.Derived
	seed    uint64 // base seed of the cell's runs
}

// prepared is a workload after set-up, ready to time.
type prepared struct {
	w       workload
	seed    uint64
	workers int
	// runs is the size of one round: runs per cell on a sweep, cohort
	// runs on a machine.
	runs int

	cells []cell // sweep workloads

	mcfg     machine.Config // machine workloads: the compiled cohort
	mjobs    []machine.JobSpec
	mcompute []float64 // per-job compute seconds, for the invariants
	mceiling float64   // defaulted PFS ceiling
	mdrains  int       // defaulted drain slots
}

// compiled is a pinned spec after parsing, validation and compilation.
type compiled struct {
	runs  int
	cells []scenario.RunConfig // sweep workloads
	mcfg  machine.Config       // machine workloads
}

// compile parses, validates and compiles the pinned spec: what
// scenario.Load does after reading the file, then the cohort × policy
// grid (sweeps) or the machine configuration (machine workloads).
func compile(w workload) (compiled, error) {
	s, err := scenario.Parse(w.spec())
	if err != nil {
		return compiled{}, err
	}
	s = s.Normalize()
	if err := s.Validate(); err != nil {
		return compiled{}, err
	}
	c := compiled{runs: s.Runs}
	if w.machine {
		c.mcfg, err = s.MachineConfig()
	} else {
		c.cells, err = s.Configs()
	}
	return c, err
}

// load compiles the workload and builds every configuration's platform
// (WithDefaults builds the I/O model) and derived quantities.
func load(w workload, seed uint64, workers int) (*prepared, error) {
	c, err := compile(w)
	if err != nil {
		return nil, err
	}
	p := &prepared{w: w, seed: seed, workers: workers, runs: c.runs}
	if w.machine {
		def := c.mcfg.WithDefaults()
		p.mcfg, p.mjobs, p.mceiling, p.mdrains = c.mcfg, def.Jobs, def.PFSCeilingGBs, def.MaxConcurrentDrains
		for _, j := range def.Jobs {
			p.mcompute = append(p.mcompute, j.Platform.Derive().ComputeSeconds)
		}
		return p, nil
	}
	for i, rc := range c.cells {
		plat := rc.Platform.WithDefaults()
		p.cells = append(p.cells, cell{
			app:     rc.Label,
			id:      rc.Policy,
			plat:    plat,
			derived: plat.Derive(),
			seed:    crmodel.RunSeed(seed, i),
		})
	}
	return p, nil
}

// The set-up warm-up runs warmUpRuns seeds per sweep cell (one reference
// cross-check each) or machineWarmUpRuns cohort runs: enough to grow the
// heap and touch every code path, and about 0.1 s or more of work, so
// that set-up time is not a handful of milliseconds at the mercy of a
// single scheduling hiccup.
const (
	warmUpRuns        = 16
	machineWarmUpRuns = 64
)

// setup loads the workload and warms it up, reps times, and returns the
// last preparation with the median set-up time in seconds, less the
// time stolen from the machine's CPUs meanwhile.
func setup(w workload, seed uint64, workers, reps int) (*prepared, float64, error) {
	var times []float64
	var p *prepared
	for r := 0; r < reps; r++ {
		steal, t0 := stealSeconds(), time.Now()
		var err error
		if p, err = load(w, seed, workers); err != nil {
			return nil, 0, err
		}
		p.warmUp()
		times = append(times, time.Since(t0).Seconds()-(stealSeconds()-steal))
	}
	return p, median(times), nil
}

func (p *prepared) warmUp() {
	if p.w.machine {
		machine.SimulateN(p.mcfg, machineWarmUpRuns, p.seed^0x5eed, p.workers)
		return
	}
	for _, c := range p.cells {
		safeSweep(c, warmUpRuns, p.workers)
	}
}

// safeSweep runs one sweep cell on the CLI path: step tier, reference
// cross-check every DefaultCrossCheckStride seeds. A cross-check
// divergence panics inside SimulateSweepN; it is returned as a message.
func safeSweep(c cell, n, workers int) (agg *stats.Agg, panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			agg, panicMsg = nil, fmt.Sprint(r)
		}
	}()
	return experiments.SimulateSweepN(experiments.StepTier(), c.id, c.plat, n, c.seed, workers, experiments.DefaultCrossCheckStride), ""
}

// loadAll loads every workload with a placeholder seed, for the metric
// names derived from the workloads' configurations.
func loadAll() []*prepared {
	var out []*prepared
	for _, w := range workloads {
		p, err := load(w, 0, 1)
		if err != nil {
			panic(err) // the embedded specs are validated by the tests
		}
		out = append(out, p)
	}
	return out
}

// nodeCounts lists the distinct application node counts of every
// workload, largest first: the sizes the cluster-layer probes run at.
func nodeCounts() []int {
	seen := map[int]bool{}
	for _, p := range loadAll() {
		for _, c := range p.cells {
			seen[c.derived.Nodes] = true
		}
		for _, j := range p.mjobs {
			seen[j.Platform.App.Nodes] = true
		}
	}
	var out []int
	for n := range seen {
		out = append(out, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
