package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pckpt/internal/crmodel"
	"pckpt/internal/experiments"
	"pckpt/internal/machine"
	"pckpt/internal/stats"
)

// round is one pass over a workload's inputs: every sweep cell once, or
// one SimulateN batch of cohort runs. Every round of a run uses the same
// seeds, so rounds must reproduce each other exactly.
type round struct {
	aggs   []*stats.Agg // sweep: per cell; nil where the cell panicked
	panics []string     // sweep: per cell cross-check divergence, or ""

	results []machine.Result // machine: per cohort run
	fails   []string         // machine (traced mirror only): per run panic, or ""
}

// round runs one pass through the public entry points the CLIs use.
func (p *prepared) round() round {
	if p.w.machine {
		// A panic inside SimulateN's worker pool is not recoverable here:
		// it ends the benchmark with a stack trace and no result.
		return round{results: machine.SimulateN(p.mcfg, p.runs, p.seed, p.workers)}
	}
	rd := round{aggs: make([]*stats.Agg, len(p.cells)), panics: make([]string, len(p.cells))}
	for i, c := range p.cells {
		rd.aggs[i], rd.panics[i] = safeSweep(c, p.runs, p.workers)
	}
	return rd
}

// pooledRound runs one untimed round through a pool of
// min(GOMAXPROCS, 2) workers, for the check that results do not depend
// on the worker count.
func (p *prepared) pooledRound() round {
	q := *p
	q.workers = min(runtime.GOMAXPROCS(0), 2)
	return q.round()
}

// tracedRound mirrors round call by call, with a span around every call
// it makes into a layer. Lane 0 is this goroutine; lanes 1..workers are
// the pool's workers.
func (p *prepared) tracedRound(tr *tracer, parent uint64) round {
	if p.w.machine {
		return p.tracedMachine(tr, parent)
	}
	rd := round{aggs: make([]*stats.Agg, len(p.cells)), panics: make([]string, len(p.cells))}
	for i, c := range p.cells {
		rd.aggs[i], rd.panics[i] = p.tracedSweep(tr, parent, c)
	}
	return rd
}

// pool runs job(lane, i) for i in [0, n) on min(workers, n) goroutines
// fed by one channel, the shape of the SimulateTierN and SimulateN
// pools. Each worker's lifetime is a span on its own lane.
func pool(tr *tracer, parent uint64, workers, n int, job func(lane int, parent uint64, i int)) {
	workers = min(workers, n)
	wait := tr.begin(0, "wait.pool", parent)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			wk := tr.begin(lane, "wait.worker", parent)
			for i := range next {
				job(lane, wk.ID(), i)
			}
			wk.end()
		}(w)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	wait.end()
}

// tracedSweep mirrors experiments.SimulateSweepN for one cell: the
// pooled SimulateTierN pass, then the serial reference cross-check.
func (p *prepared) tracedSweep(tr *tracer, parent uint64, c cell) (*stats.Agg, string) {
	step, ref := experiments.StepTier(), experiments.AppTier()
	sw := tr.begin(0, "experiments.SimulateSweepN", parent)
	defer sw.end()

	n := p.runs
	tierN := tr.begin(0, "experiments.SimulateTierN", sw.ID())
	results := make([]stats.RunResult, n)
	fails := make([]string, n)
	pool(tr, tierN.ID(), p.workers, n, func(lane int, parent uint64, i int) {
		s := tr.begin(lane, "stepsim.Simulate", parent)
		results[i], fails[i] = safeSimulate(step, c, crmodel.RunSeed(c.seed, i))
		s.end()
	})
	agg := &stats.Agg{}
	for i, r := range results {
		if fails[i] != "" {
			agg.AddFailed(stats.FailedRun{Seed: crmodel.RunSeed(c.seed, i), Config: c.String(), Err: fails[i]})
			continue
		}
		agg.Add(r)
	}
	tierN.end()

	cc := tr.begin(0, "experiments.crossCheckSampled", sw.ID())
	defer cc.end()
	for i := 0; i < n; i += experiments.DefaultCrossCheckStride {
		seed := crmodel.RunSeed(c.seed, i)
		s := tr.begin(0, "stepsim.Simulate", cc.ID())
		got, gotFail := safeSimulate(step, c, seed)
		s.end()
		r := tr.begin(0, "crmodel.Simulate", cc.ID())
		want, wantFail := safeSimulate(ref, c, seed)
		r.end()
		if gotFail != "" && wantFail != "" {
			continue // both tiers panicked: the pool's ledger already has it
		}
		if gotFail != "" || wantFail != "" || got != want {
			return nil, fmt.Sprintf("%s: step tier diverged from reference at run %d", c, i)
		}
	}
	return agg, ""
}

// tracedMachine mirrors machine.SimulateN: cohort run r on a pool
// worker, seeded crmodel.RunSeed(seed, r).
func (p *prepared) tracedMachine(tr *tracer, parent uint64) round {
	n := p.runs
	rd := round{results: make([]machine.Result, n), fails: make([]string, n)}
	sn := tr.begin(0, "machine.SimulateN", parent)
	pool(tr, sn.ID(), p.workers, n, func(lane int, parent uint64, r int) {
		s := tr.begin(lane, "machine.Simulate", parent)
		rd.results[r], rd.fails[r] = safeMachine(p, crmodel.RunSeed(p.seed, r))
		s.end()
	})
	sn.end()
	return rd
}

func (c cell) String() string { return fmt.Sprintf("%s/%s", c.app, c.id) }

// safeSimulate runs one seed of a cell on a tier, turning a panic (a
// model bug, or the engine watchdog) into a message.
func safeSimulate(t experiments.Tier, c cell, seed uint64) (r stats.RunResult, failure string) {
	defer func() {
		if v := recover(); v != nil {
			failure = fmt.Sprint(v)
		}
	}()
	return t.Simulate(c.id, c.plat, seed), ""
}

// safeMachine runs one cohort seed, turning a panic into a message.
func safeMachine(p *prepared, seed uint64) (res machine.Result, failure string) {
	defer func() {
		if v := recover(); v != nil {
			failure = fmt.Sprint(v)
		}
	}()
	return machine.Simulate(p.mcfg, seed), ""
}

// phase is one timed closed loop of rounds.
type phase struct {
	rounds  []round
	runs    int
	elapsed float64 // seconds, summed over rounds
	// roundSecs, roundCPU and roundSteal are each round's wall, process
	// CPU and stolen seconds: the time metrics are medians over rounds,
	// so a burst of interference from the rest of the host moves one
	// round, not the run.
	roundSecs, roundCPU, roundSteal []float64
	mallocs                         uint64
	bytes                           uint64
	// From runtime/metrics: GC cycles, and the GC's share of the
	// runtime's CPU-time estimate.
	gcCycles uint64
	gcCPU    float64
	allCPU   float64
}

// runsPerSec is the median over rounds of runs completed per second of
// wall time the machine's CPUs were not stolen.
func (ph phase) runsPerSec() float64 {
	return float64(ph.runs/len(ph.rounds)) / median(lessSteal(ph.roundSecs, ph.roundSteal))
}

// cpuMsPerRun is the median over rounds of process CPU per run. Steal
// is not subtracted: a kernel that accounts steal (as on paravirtual
// guests) already leaves it out of a thread's CPU time.
func (ph phase) cpuMsPerRun() float64 {
	return median(ph.roundCPU) * 1e3 / float64(ph.runs/len(ph.rounds))
}

// stealFrac is the share of the phase's wall time stolen.
func (ph phase) stealFrac() float64 {
	var steal float64
	for _, s := range ph.roundSteal {
		steal += s
	}
	return steal / ph.elapsed
}

// lessSteal subtracts each round's stolen seconds from its wall time.
func lessSteal(secs, steal []float64) []float64 {
	out := make([]float64, len(secs))
	for i := range secs {
		out[i] = secs[i] - steal[i]
	}
	return out
}

// timed runs rounds back to back until dur has passed, finishing the
// round in progress, so every phase measures whole rounds of an
// identical mix. Without a tracer every round is untraced. With one,
// rounds alternate untraced and traced (the traced mirror), so both
// phases see the same host conditions and their throughput difference
// is the tracing overhead rather than drift in the rest of the host.
func (p *prepared) timed(dur time.Duration, tr *tracer) (plain, traced phase) {
	t0 := time.Now()
	for i := 0; time.Since(t0) < dur || len(plain.rounds) == 0 || (tr != nil && len(traced.rounds) == 0); i++ {
		if tr == nil || i%2 == 0 {
			plain.add(p, p.round)
			continue
		}
		traced.add(p, func() round {
			root := tr.begin(0, "bench.round", 0)
			defer root.end()
			return p.tracedRound(tr, root.ID())
		})
	}
	return plain, traced
}

// add runs one round and accounts for it.
func (ph *phase) add(p *prepared, run func() round) {
	before := readCounters()
	t := time.Now()
	rd := run()
	secs := time.Since(t).Seconds()
	after := readCounters()
	ph.rounds = append(ph.rounds, rd)
	ph.runs += p.roundRuns()
	ph.elapsed += secs
	ph.roundSecs = append(ph.roundSecs, secs)
	ph.roundCPU = append(ph.roundCPU, (after.cpu - before.cpu).Seconds())
	ph.roundSteal = append(ph.roundSteal, after.steal-before.steal)
	ph.mallocs += after.mallocs - before.mallocs
	ph.bytes += after.bytes - before.bytes
	ph.gcCycles += after.gcCycles - before.gcCycles
	ph.gcCPU += after.gcCPU - before.gcCPU
	ph.allCPU += after.allCPU - before.allCPU
}

// roundRuns is the number of simulated runs in one round.
func (p *prepared) roundRuns() int {
	if p.w.machine {
		return p.runs
	}
	return p.runs * len(p.cells)
}

type counters struct {
	cpu            time.Duration
	mallocs, bytes uint64
	gcCycles       uint64
	gcCPU, allCPU  float64
	steal          float64
}

var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readCounters reads the process's user plus system CPU time, the
// machine's stolen CPU time, heap allocation totals and the runtime's GC
// accounting.
func readCounters() counters {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	c := counters{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.bytes = ms.Mallocs, ms.TotalAlloc
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	c.gcCycles = s[0].Value.Uint64()
	c.gcCPU = s[1].Value.Float64()
	c.allCPU = s[2].Value.Float64()
	c.steal = stealSeconds()
	return c
}

// stealSeconds reads the CPU time a hypervisor has taken from this
// virtual machine's CPUs since boot, summed over CPUs. On a shared host
// it is the main reason a round's wall time moves: the VM waits while
// its CPUs run someone else. The benchmark subtracts it from round and
// set-up wall times. It is 0 where /proc/stat cannot be read.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	return parseSteal(string(b))
}

// parseSteal reads the steal column of /proc/stat's first line, in
// USER_HZ (1/100 s) ticks, as seconds; 0 if the line has none.
func parseSteal(stat string) float64 {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return float64(ticks) / 100
}
