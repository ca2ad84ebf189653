package main

import (
	"fmt"
	"runtime"
	"time"

	"pckpt/internal/cluster"
	"pckpt/internal/crmodel"
	"pckpt/internal/failure"
	"pckpt/internal/iomodel"
	"pckpt/internal/machine"
	"pckpt/internal/platform"
	"pckpt/internal/rng"
	"pckpt/internal/stepsim"
)

// probeSink keeps probe results reachable so no call is optimized away.
var probeSink float64

// probes times the public functions of single layers, each sized from
// the workload's own parameters, and adds the per-layer metrics to m.
// Each probe loop is one span under a "bench.probes" root. A probe
// check that fails (a cross-check mismatch, an unfinished flow) counts
// as one failed run in v.
func (p *prepared) probes(tr *tracer, m map[string]float64, v *verdict) {
	root := tr.begin(0, "bench.probes", 0)
	defer root.end()
	id := root.ID()
	p.probeEngine(tr, id, m)
	probeCluster(tr, id, m)
	p.probeFailure(tr, id, m)
	p.probeSetupLayers(tr, id, m)
	p.probeRunAllocs(tr, id, m)
	if p.w.machine {
		p.probeArbiter(tr, id, m, v)
		p.probeSolo(tr, id, m, v)
	}
}

// timeLoop runs fn(i) for i in [0, n) inside one span and returns the
// mean nanoseconds per call and heap allocations/bytes per call.
func timeLoop(tr *tracer, parent uint64, name string, n int, fn func(i int)) (ns, allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := tr.begin(0, name, parent)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(t0)
	s.end()
	runtime.ReadMemStats(&after)
	return float64(el.Nanoseconds()) / float64(n),
		float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// tenants is how many applications share one engine on this workload.
func (p *prepared) tenants() int {
	if p.w.machine {
		return len(p.mjobs)
	}
	return 1
}

// platforms lists the workload's distinct application platforms.
func (p *prepared) platforms() []platform.Config {
	var out []platform.Config
	seen := map[string]bool{}
	add := func(pc platform.Config) {
		if !seen[pc.App.Name] {
			seen[pc.App.Name] = true
			out = append(out, pc)
		}
	}
	for _, c := range p.cells {
		add(c.plat)
	}
	for _, j := range p.mjobs {
		add(j.Platform)
	}
	return out
}

// engineEvents is the engine probe's event count.
const engineEvents = 200_000

// probeEngine drives a fresh engine the way the application layer does:
// every event is a new closure scheduled with AtNamed, and every fourth
// also arms and cancels a timer. The queue holds four live timers per
// application sharing the engine (compute chunk, failure wake, drain,
// OCI refresh), so its depth matches the workload's.
func (p *prepared) probeEngine(tr *tracer, parent uint64, m map[string]float64) {
	depth := 4 * p.tenants()
	r := rng.New(p.seed)
	eng := stepsim.NewEngine()
	scheduled := 0
	var schedule func()
	schedule = func() {
		scheduled++
		d := r.Float64() * 100
		eng.AtNamed(d, "probe", func() {
			if scheduled%4 == 0 {
				eng.Cancel(eng.AfterCancel(d, "probe-timer", func() {}))
			}
			if scheduled < engineEvents {
				schedule()
			}
		})
	}
	for i := 0; i < depth; i++ {
		schedule()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := tr.begin(0, "stepsim.ProcessNextEvent", parent)
	t0 := time.Now()
	for eng.ProcessNextEvent() {
	}
	el := time.Since(t0)
	s.end()
	runtime.ReadMemStats(&after)
	n := float64(eng.Dispatched())
	eng.Release()
	m["stepsim.engine_ns_per_event"] = float64(el.Nanoseconds()) / n
	m["stepsim.engine_allocs_per_event"] = float64(after.Mallocs-before.Mallocs) / n
}

// probeCluster times cluster.New and the all-node checkpoint records at
// every workload's application node count, so each named size is
// measured on every workload.
func probeCluster(tr *tracer, parent uint64, m map[string]float64) {
	for _, n := range nodeCounts() {
		var c *cluster.Cluster
		ns, _, bytes := timeLoop(tr, parent, "cluster.New", max(16, 4_000_000/n), func(int) {
			c = cluster.New(n, 0)
		})
		m[fmt.Sprintf("cluster.new_us.%d", n)] = ns / 1e3
		m[fmt.Sprintf("cluster.new_bytes.%d", n)] = bytes
		ns, _, _ = timeLoop(tr, parent, "cluster.RecordCheckpointAll", max(1000, 40_000_000/n), func(i int) {
			if i&1 == 0 {
				c.RecordBBCheckpointAll(float64(i))
			} else {
				c.RecordPFSCheckpointAll(float64(i))
			}
		})
		m[fmt.Sprintf("cluster.record_all_ns.%d", n)] = ns
		probeSink += c.Node(0).PFSProgress
	}
}

// probeFailure times EventSource.Next on each application's stream, as
// the tiers build it: the platform's stream config on substream 1.
func (p *prepared) probeFailure(tr *tracer, parent uint64, m map[string]float64) {
	const calls = 100_000
	var total float64
	plats := p.platforms()
	for _, pc := range plats {
		src := failure.NewSource(pc.StreamConfig(nil), rng.New(p.seed).Split(1))
		ns, _, _ := timeLoop(tr, parent, "failure.Next", calls, func(int) {
			probeSink += src.Next().Time
		})
		total += ns
	}
	m["failure.next_ns"] = total / float64(len(plats))
}

// probeSetupLayers times the calls set-up makes: compiling the pinned
// spec, building the I/O model, deriving platform quantities, and the
// I/O model's lookups at the workload's application sizes.
func (p *prepared) probeSetupLayers(tr *tracer, parent uint64, m map[string]float64) {
	ns, _, _ := timeLoop(tr, parent, "scenario.load", 50, func(int) {
		if _, err := compile(p.w); err != nil {
			panic(err) // compiled once already in set-up
		}
	})
	m["scenario.load_us"] = ns / 1e3
	ns, _, _ = timeLoop(tr, parent, "iomodel.New", 200, func(int) {
		probeSink += iomodel.New(iomodel.DefaultSummit()).Config().AggregatePFSCeilingGBs
	})
	m["iomodel.new_us"] = ns / 1e3

	plats := p.platforms()
	ns, _, _ = timeLoop(tr, parent, "platform.Derive", 200*len(plats), func(i int) {
		probeSink += plats[i%len(plats)].Derive().Drain
	})
	m["platform.derive_us"] = ns / 1e3

	io := plats[0].IO
	ns, _, _ = timeLoop(tr, parent, "iomodel.lookup", 200_000, func(i int) {
		a := plats[(i/2)%len(plats)].App
		if i&1 == 0 {
			probeSink += io.AggregateBandwidth(a.Nodes, a.PerNodeGB())
		} else {
			probeSink += io.PFSWriteTime(a.Nodes, a.PerNodeGB())
		}
	})
	m["iomodel.lookup_ns"] = ns
}

// allocSeeds is how many seeds each per-configuration allocation count
// averages over.
const allocSeeds = 4

// probeRunAllocs counts heap allocations per step-tier Simulate call for
// each of the workload's (application, model) configurations, run
// serially so the count belongs to that one call.
func (p *prepared) probeRunAllocs(tr *tracer, parent uint64, m map[string]float64) {
	run := func(name string, cfg stepsim.Config, seed func(i int) uint64) {
		_, allocs, _ := timeLoop(tr, parent, "stepsim.SimulateAllocs", allocSeeds, func(i int) {
			probeSink += stepsim.Simulate(cfg, seed(i)).WallSeconds
		})
		m["stepsim.allocs_per_run."+name] = allocs
	}
	for _, c := range p.cells {
		run(c.app+"."+c.id.String(), stepsim.Config{Model: c.id, Config: c.plat}, func(i int) uint64 {
			return crmodel.RunSeed(c.seed, i)
		})
	}
	for j, job := range p.mjobs {
		run(job.Platform.App.Name+"."+job.Model.String(), stepsim.Config{Model: job.Model, Config: job.Platform}, func(i int) uint64 {
			return crmodel.RunSeed(crmodel.RunSeed(p.seed, i), j)
		})
	}
}

// flowsPerKind is how many flows of each (tenant, class) kind the
// arbiter probe starts.
const flowsPerKind = 500

// probeArbiter drives a fresh bandwidth arbiter with the cohort's own
// transfers: for every tenant a drain, a collective write, a vulnerable
// node write and a recovery read at their solo volumes and durations,
// on the machine's ceiling and drain slots. Flows start one after the
// other, one of each kind per cycle, and run to completion. A cycle is
// long enough that the flows of one cycle need at most half the
// ceiling and half the drain slots, so the arbiter reprices a steady
// working set instead of an ever-growing backlog. Under a fault plan the
// ceiling also steps down to the plan's brownout floor and back (every
// fourth step a blackout), and the starvation watchdog is armed, as
// machine.Simulate does.
func (p *prepared) probeArbiter(tr *tracer, parent uint64, m map[string]float64, v *verdict) {
	type kind struct {
		app       int
		class     stepsim.WriteClass
		vol, solo float64
	}
	var kinds []kind
	var cycle, volume, drainSecs float64
	for j, job := range p.mjobs {
		d := job.Platform.Derive()
		full := float64(d.Nodes) * d.PerNodeGB
		kinds = append(kinds,
			kind{j, stepsim.ClassDrain, full, d.Drain},
			kind{j, stepsim.ClassCollective, full, d.FullPFSWrite},
			kind{j, stepsim.ClassVulnerable, d.PerNodeGB, d.SingleNodePFSWrite},
			kind{j, stepsim.ClassRecovery, full, d.RecoveryPFS})
		cycle = max(cycle, d.Drain, d.FullPFSWrite, d.SingleNodePFSWrite, d.RecoveryPFS)
		volume += 3*full + d.PerNodeGB
		drainSecs += d.Drain
	}
	cycle = max(cycle, 2*volume/p.mceiling, 2*drainSecs/float64(p.mdrains))
	gap := cycle / float64(len(kinds))
	flows := flowsPerKind * len(kinds)
	faults := p.mcfg.Faults

	eng := stepsim.NewEngine()
	arb := machine.NewBandwidthArbiter(eng, p.mceiling, p.mdrains, len(p.mjobs))
	if faults.StarvationEscalationSeconds > 0 {
		arb.SetStarvationEscalation(faults.StarvationEscalationSeconds)
	}
	done := 0
	var start func(i int)
	start = func(i int) {
		k := kinds[i%len(kinds)]
		arb.StartFlow(k.app, k.class, k.vol, k.solo, func() { done++ })
		if faults.Enabled() && i%(2*len(kinds)) == 0 {
			factor := faults.BrownoutMinFactor
			if (i/(2*len(kinds)))%4 == 3 {
				factor = 0
			}
			arb.SetCeiling(p.mceiling * factor)
			eng.AtNamed(cycle/2, "probe-restore", func() { arb.SetCeiling(p.mceiling) })
		}
		if i+1 < flows {
			eng.AtNamed(gap, "probe-flow", func() { start(i + 1) })
		}
	}
	eng.AtNamed(0, "probe-flow", func() { start(0) })
	s := tr.begin(0, "machine.BandwidthArbiter", parent)
	t0 := time.Now()
	eng.RunAll()
	el := time.Since(t0)
	s.end()
	eng.Release()
	if done != flows {
		v.fail(1, "arbiter probe: %d of %d flows completed", done, flows)
	}
	m["machine.arbiter_ns_per_flow"] = float64(el.Nanoseconds()) / float64(flows)
}

// soloRuns is how many cohort runs the solo-baseline probe re-times:
// enough for over a thousand step-tier runs, so a p99 has ten samples
// beyond it.
const soloRuns = 340

// probeSolo times cohort runs one at a time, then re-runs each tenant's
// solo baseline — the same stepsim.Simulate call machine.Simulate makes
// for its slowdown denominator, with the job's platform and seed — and,
// on every fourth run, the same baseline on the reference tier. A solo
// baseline that differs from the cohort result's, or from the
// reference, is a failed run.
func (p *prepared) probeSolo(tr *tracer, parent uint64, m map[string]float64, v *verdict) {
	var machineNs, soloNs int64
	for r := 0; r < soloRuns; r++ {
		seed := crmodel.RunSeed(p.seed, r)
		s := tr.begin(0, "machine.Simulate", parent)
		res, fail := safeMachine(p, seed)
		s.end()
		machineNs += s.dur()
		if fail != "" {
			v.fail(1, "solo probe: cohort run %d: %s", r, fail)
			continue
		}
		for j, job := range p.mjobs {
			cfg := stepsim.Config{Model: job.Model, Config: job.Platform}
			s := tr.begin(0, "stepsim.Simulate", parent)
			solo := stepsim.Simulate(cfg, crmodel.RunSeed(seed, j))
			s.end()
			soloNs += s.dur()
			if solo.WallSeconds != res.Jobs[j].SoloWallSeconds {
				v.fail(1, "solo probe: cohort run %d job %d: solo baseline differs", r, j)
			}
			if r%4 == 0 {
				c := tr.begin(0, "crmodel.Simulate", parent)
				ref := crmodel.Simulate(crmodel.Config{Model: job.Model, Config: job.Platform}, crmodel.RunSeed(seed, j))
				c.end()
				if ref != solo {
					v.fail(1, "solo probe: cohort run %d job %d: step tier diverged from reference", r, j)
				}
			}
		}
	}
	m["machine.solo_share"] = float64(soloNs) / float64(machineNs)
}
