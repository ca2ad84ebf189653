// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator through the entry points the CLIs use —
// experiments.SimulateSweepN on the step tier with the default reference
// cross-check, and machine.SimulateN — as a closed loop from one process
// with one worker, checks every result (once more through a pool of up
// to two workers), and prints the metrics as one JSON object on the last
// line of standard output.
//
//	perfbench --workload sweep-large --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// traced run that reports the per-layer metrics, prints a per-layer
// self-time table, and writes its spans as JSON under .bench_build/.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// output is the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median.
const setupReps = 7

// timedWorkers is the pool size of every timed round. One worker leaves
// the machine's second CPU to the garbage collector and the rest of the
// host, so no round waits on a straggling worker whose CPU was taken.
// Results must not depend on it: an untimed round through a pool of
// min(GOMAXPROCS, 2) workers is checked against the timed ones.
const timedWorkers = 1

// tracedShare is the share of --seconds a traced run spends on its
// alternating untraced and traced rounds. Set-up and the layer probes
// take most of the rest.
const tracedShare = 0.8

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep-large, sweep-small, machine-contended or machine-degraded")
	seed := fs.Uint64("seed", 1, "seed the workload's run seeds derive from")
	seconds := fs.Float64("seconds", 10, "seconds one run measures")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && (*seconds <= 0 || (*traced != 0 && *traced != 1)) {
		err = fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))

	var out output
	if *traced == 0 {
		out, err = untracedRun(stdout, w, *seed, dur, timedWorkers)
	} else {
		out, err = tracedRun(stdout, w, *seed, dur, timedWorkers)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// untracedRun measures the end-to-end metrics.
func untracedRun(out io.Writer, w workload, seed uint64, dur time.Duration, workers int) (output, error) {
	p, setupS, err := setup(w, seed, workers, setupReps)
	if err != nil {
		return output{}, err
	}
	ph, _ := p.timed(dur, nil)
	ref := ph.rounds[0]
	v := p.verify(append(ph.rounds, p.pooledRound()), ref, true)
	report(out, p, "untraced", ph, ref, v)

	runs := float64(ph.runs)
	return finish(v, map[string]float64{
		"runs_per_s":          ph.runsPerSec(),
		"cpu_ms_per_run":      ph.cpuMsPerRun(),
		"allocs_per_run":      float64(ph.mallocs) / runs,
		"alloc_bytes_per_run": float64(ph.bytes) / runs,
		"setup_s":             setupS,
		"run_ok_frac":         1 - float64(v.failed)/float64(v.attempted),
		"invariant_ok_frac":   1 - float64(v.violations)/float64(v.appRuns),
	}, endToEnd)
}

// report prints a phase's human-readable summary.
func report(out io.Writer, p *prepared, label string, ph phase, ref round, v verdict) {
	fmt.Fprintf(out, "%s %s: seed %d, %d workers, %d rounds of %d runs in %.3fs (median round %.1f runs/s)\n",
		p.w.name, label, p.seed, p.workers, len(ph.rounds), p.roundRuns(), ph.elapsed, ph.runsPerSec())
	fmt.Fprintf(out, "%s %s: round seconds min %.4f median %.4f max %.4f; %.2f%% of the wall time stolen\n",
		p.w.name, label, percentile(ph.roundSecs, 0), median(ph.roundSecs), percentile(ph.roundSecs, 100), 100*ph.stealFrac())
	fmt.Fprintf(out, "%s %s: digest %s\n", p.w.name, label, p.digest(ref))
	fmt.Fprintf(out, "%s %s: failed_run_frac %.6g (%d of %d)\n",
		p.w.name, label, float64(v.failed)/float64(v.attempted), v.failed, v.attempted)
	fmt.Fprintf(out, "%s %s: invariant_violation_frac %.6g (%d of %d application runs); violating runs per round:%s\n",
		p.w.name, label, float64(v.violations)/float64(v.appRuns), v.violations, v.appRuns, sortedCounts(p.verify([]round{ref}, ref, false).violationsBy))
	if p.w.machine {
		fmt.Fprintf(out, "%s %s: cohort runs with a violation %.6g (%d of %d)\n",
			p.w.name, label, float64(v.cohortViolations)/float64(v.attempted), v.cohortViolations, v.attempted)
	}
	for _, n := range v.notes {
		fmt.Fprintf(out, "%s %s: failure: %s\n", p.w.name, label, n)
	}
}

// finish builds the output from the verdict and metric values, checking
// that exactly the listed metrics are present and finite.
func finish(v verdict, values map[string]float64, defs []metricDef) (output, error) {
	out := output{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: map[string]metric{}}
	if len(values) != len(defs) {
		return output{}, fmt.Errorf("%d metric values for %d metrics", len(values), len(defs))
	}
	for _, d := range defs {
		x, ok := values[d.name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			return output{}, fmt.Errorf("metric %s missing or not finite (%v)", d.name, x)
		}
		out.Metrics[d.name] = metric{Value: x, Unit: d.unit}
	}
	return out, nil
}

// tracedRun measures the per-layer metrics: untraced rounds alternating
// with the traced mirror of the same rounds, then the layer probes.
func tracedRun(out io.Writer, w workload, seed uint64, dur time.Duration, workers int) (output, error) {
	p, _, err := setup(w, seed, workers, 1)
	if err != nil {
		return output{}, err
	}
	tr := newTracer(workers + 1)
	untraced, traced := p.timed(time.Duration(tracedShare*float64(dur)), tr)
	ref := untraced.rounds[0]
	vU := p.verify(untraced.rounds, ref, true)
	report(out, p, "untraced", untraced, ref, vU)
	vT := p.verify(traced.rounds, ref, false)
	report(out, p, "traced", traced, traced.rounds[0], vT)
	wl := tr.spans()
	self, laneTime := layerSelf(wl)
	writeSelfTable(out, self, laneTime)

	m := map[string]float64{}
	for _, d := range perLayer() {
		m[d.name] = 0
	}
	pt := newTracer(1)
	var vP verdict
	p.probes(pt, m, &vP)
	probeSpans := pt.spans()
	for _, n := range vP.notes {
		fmt.Fprintf(out, "%s probes: failure: %s\n", w.name, n)
	}

	runStats := wl
	if p.w.machine {
		runStats = probeSpans
		ms := durationsMs(wl, "machine.Simulate")
		m["machine.run_ms_p50"], m["machine.run_ms_p99"] = percentile(ms, 50), percentile(ms, 99)
		m["machine.run_samples"] = float64(len(ms))
	} else {
		sweep := sumDur(wl, "experiments.SimulateSweepN")
		cross := sumDur(wl, "experiments.crossCheckSampled")
		tierN := sumDur(wl, "experiments.SimulateTierN")
		var busy int64
		for _, s := range wl {
			if s.Name == "stepsim.Simulate" && s.Lane > 0 {
				busy += s.dur()
			}
		}
		m["experiments.crosscheck_share"] = float64(cross) / float64(sweep)
		m["experiments.worker_busy_frac"] = float64(busy) / float64(int64(p.workers)*tierN)
	}
	stepMs := durationsMs(runStats, "stepsim.Simulate")
	m["stepsim.run_ms_p50"], m["stepsim.run_ms_p99"] = percentile(stepMs, 50), percentile(stepMs, 99)
	m["stepsim.run_samples"] = float64(len(stepMs))
	refMs := durationsMs(runStats, "crmodel.Simulate")
	m["crmodel.run_ms_p50"], m["crmodel.run_samples"] = percentile(refMs, 50), float64(len(refMs))

	p.countsPerRun(ref, m)
	runs := float64(untraced.runs)
	m["runtime.gc_cycles_per_run"] = float64(untraced.gcCycles) / runs
	m["runtime.gc_cpu_frac"] = untraced.gcCPU / untraced.allCPU

	m["bench.untraced_runs_per_s"] = untraced.runsPerSec()
	m["bench.traced_runs_per_s"] = traced.runsPerSec()
	m["bench.trace_overhead_frac"] = untraced.runsPerSec()/traced.runsPerSec() - 1
	m["bench.steal_frac"] = untraced.stealFrac()
	var layers int64
	for l, t := range self {
		if l != "bench" && l != "wait" {
			layers += t
		}
	}
	m["bench.accounted_frac"] = float64(layers) / float64(laneTime-self["wait"])
	fmt.Fprintf(out, "%s traced: layers account for %.2f%% of busy lane time; tracing overhead %.2f%% of untraced runs/s\n",
		w.name, 100*m["bench.accounted_frac"], 100*m["bench.trace_overhead_frac"])

	spansPath := filepath.Join(".bench_build", fmt.Sprintf("perfbench-spans-%s-%d.json", w.name, seed))
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return output{}, fmt.Errorf("write spans: %w", err)
	}
	if err := writeSpans(spansPath, map[string][]span{"workload": wl, "probes": probeSpans}); err != nil {
		return output{}, err
	}
	fmt.Fprintf(out, "%s traced: %d spans written to %s\n", w.name, len(wl)+len(probeSpans), spansPath)

	v := verdict{attempted: vU.attempted + vT.attempted, failed: vU.failed + vT.failed + vP.failed}
	return finish(v, m, perLayer())
}

// countsPerRun adds the per-run counts read off the reference round's
// results; they depend only on the seeds, so they repeat exactly.
func (p *prepared) countsPerRun(ref round, m map[string]float64) {
	var n, ckpts, events float64
	if !p.w.machine {
		for _, agg := range ref.aggs {
			if agg == nil {
				continue
			}
			for _, r := range agg.Runs() {
				n++
				ckpts += float64(r.Checkpoints)
				events += float64(r.Failures + r.Avoided + r.Predicted)
			}
		}
	}
	var decisions, escalations, brownouts, outages, crashes float64
	for _, res := range ref.results {
		n++
		for _, jr := range res.Jobs {
			ckpts += float64(jr.Run.Checkpoints)
			events += float64(jr.Run.Failures + jr.Run.Avoided + jr.Run.Predicted)
		}
		decisions += float64(len(res.Decisions))
		escalations += float64(res.Escalations)
		brownouts += float64(res.Brownouts)
		outages += float64(res.DrainOutages)
		crashes += float64(res.TenantCrashes)
	}
	n = max(n, 1)
	m["cluster.record_all_calls_per_run"] = ckpts / n
	m["failure.events_per_run"] = events / n
	m["machine.decisions_per_run"] = decisions / n
	m["machine.escalations_per_run"] = escalations / n
	m["faultinject.brownouts_per_run"] = brownouts / n
	m["faultinject.drain_outages_per_run"] = outages / n
	m["faultinject.tenant_crashes_per_run"] = crashes / n
}
