package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"pckpt/internal/machine"
	"pckpt/internal/stats"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of empty sample = %g, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// TestSteal checks the /proc/stat steal column parse and that round
// times lose exactly their stolen seconds.
func TestSteal(t *testing.T) {
	stat := "cpu  1113914 0 38304 640725 468 0 6723 33882 0 0\ncpu0 556957 0 19152 320362 234 0 3361 16941 0 0\n"
	if got := parseSteal(stat); got != 338.82 {
		t.Errorf("parseSteal = %g, want 338.82", got)
	}
	for _, bad := range []string{"", "cpu 1 2 3", "intr 1 2 3 4 5 6 7 8 9", "cpu 1 2 3 4 5 6 7 x"} {
		if got := parseSteal(bad); got != 0 {
			t.Errorf("parseSteal(%q) = %g, want 0", bad, got)
		}
	}
	ph := phase{runs: 20, rounds: make([]round, 2), elapsed: 3,
		roundSecs: []float64{1, 2}, roundCPU: []float64{1, 2}, roundSteal: []float64{0, 0.5}}
	if got := ph.runsPerSec(); got != 10/1.25 {
		t.Errorf("runsPerSec = %g, want %g", got, 10/1.25)
	}
	if got := ph.cpuMsPerRun(); got != 150 {
		t.Errorf("cpuMsPerRun = %g, want 150 (steal is not subtracted from CPU)", got)
	}
	if got := ph.stealFrac(); got != 0.5/3 {
		t.Errorf("stealFrac = %g, want %g", got, 0.5/3)
	}
}

func TestUnionLen(t *testing.T) {
	for _, c := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{20, 30}, {0, 10}}, 20},
		{[][2]int64{{0, 10}, {5, 15}}, 15},
		{[][2]int64{{0, 10}, {2, 4}}, 10},
		{[][2]int64{{0, 10}, {10, 20}}, 20},
		{[][2]int64{{5, 5}, {7, 3}}, 0},
	} {
		if got := unionLen(c.iv); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

// TestSelfTimes checks self time on a hand-built tree: overlapping
// same-lane children are subtracted once, and a child on another lane
// (a pool worker) is not subtracted from its parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.round", Lane: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "experiments.SimulateTierN", Lane: 0, Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "wait.pool", Lane: 0, Start: 20, End: 55},
		{ID: 4, Parent: 1, Name: "crmodel.Simulate", Lane: 0, Start: 50, End: 80},
		{ID: 5, Parent: 2, Name: "wait.worker", Lane: 1, Start: 20, End: 55},
		{ID: 6, Parent: 5, Name: "stepsim.Simulate", Lane: 1, Start: 21, End: 40},
		{ID: 7, Parent: 5, Name: "stepsim.Simulate", Lane: 1, Start: 40, End: 54},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 70, 2: 50 - 35, 3: 35, 4: 30, 5: 35 - 33, 6: 19, 7: 14}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}
	perLayer, laneTime := layerSelf(spans)
	if laneTime != 100+35 {
		t.Errorf("lane time %d, want 135", laneTime)
	}
	var sum int64
	for _, v := range perLayer {
		sum += v
	}
	// Spans 2 and 4 overlap on lane 0, so the root's self time is what
	// their union leaves; the sum then exceeds lane time by the overlap.
	if perLayer["stepsim"] != 33 || perLayer["crmodel"] != 30 || sum != laneTime+10 {
		t.Errorf("per-layer self %v (sum %d), lane time %d", perLayer, sum, laneTime)
	}
}

func TestTracerNested(t *testing.T) {
	tr := newTracer(2)
	root := tr.begin(0, "bench.round", 0)
	child := tr.begin(0, "stepsim.Simulate", root.ID())
	child.end()
	w := tr.begin(1, "wait.worker", root.ID())
	w.end()
	root.end()
	spans := tr.spans()
	if len(spans) != 3 || spans[1].Parent != spans[0].ID || spans[2].Lane != 1 || spans[2].ID == spans[0].ID {
		t.Fatalf("spans %+v", spans)
	}
	perLayer, laneTime := layerSelf(spans)
	var sum int64
	for _, v := range perLayer {
		sum += v
	}
	if sum != laneTime {
		t.Errorf("properly nested spans: self-time sum %d != lane time %d", sum, laneTime)
	}
	var nilTracer *tracer
	if s := nilTracer.begin(0, "x", 0); s.ID() != 0 || s.dur() != 0 {
		t.Error("nil tracer recorded a span")
	}
}

func TestRunViolation(t *testing.T) {
	ok := stats.RunResult{Overheads: stats.Overheads{Checkpoint: 10, Recompute: 5, Recovery: 1}, WallSeconds: 116, Failures: 2, Mitigated: 1, Avoided: 1}
	if v := runViolation(ok, 100); v != "" {
		t.Fatalf("consistent run flagged: %s", v)
	}
	doctor := func(f func(r *stats.RunResult)) stats.RunResult {
		r := ok
		f(&r)
		return r
	}
	for name, r := range map[string]stats.RunResult{
		"identity":  doctor(func(r *stats.RunResult) { r.WallSeconds += 0.01 }),
		"negative":  doctor(func(r *stats.RunResult) { r.Recovery = -1; r.WallSeconds -= 2 }),
		"counter":   doctor(func(r *stats.RunResult) { r.Checkpoints = -1 }),
		"handled":   doctor(func(r *stats.RunResult) { r.Mitigated = 3 }),
		"nan":       doctor(func(r *stats.RunResult) { r.WallSeconds = math.NaN() }),
		"truncated": doctor(func(r *stats.RunResult) { r.Truncated = true; r.WallSeconds += 5 }),
	} {
		if runViolation(r, 100) == "" {
			t.Errorf("%s: doctored run not flagged", name)
		}
	}
	short := doctor(func(r *stats.RunResult) { r.Truncated = true; r.WallSeconds -= 50 })
	if v := runViolation(short, 100); v != "" {
		t.Errorf("truncated run short of its compute flagged: %s", v)
	}
}

// smallPrepared loads a workload with a tiny round, for tests.
func smallPrepared(t *testing.T, name string, runs int) *prepared {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := load(w, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.runs = runs
	return p
}

// rebuild copies an aggregate, applying f to its runs.
func rebuild(agg *stats.Agg, f func(i int, r *stats.RunResult)) *stats.Agg {
	out := &stats.Agg{}
	for i, r := range agg.Runs() {
		f(i, &r)
		out.Add(r)
	}
	for _, fr := range agg.Failed() {
		out.AddFailed(fr)
	}
	return out
}

func TestVerifySweepFlagsDoctoredResults(t *testing.T) {
	p := smallPrepared(t, "sweep-large", 8)
	ref := p.round()
	clean := p.verify([]round{ref, p.round()}, ref, true)
	if clean.failed != 0 || clean.attempted != 2*8*len(p.cells) {
		t.Fatalf("clean rounds: %+v", clean)
	}
	if clean.violations == 0 {
		t.Fatal("expected the known M2/P2 accounting-identity violations")
	}
	for k := range clean.violationsBy {
		if !strings.HasSuffix(k, "/M2") && !strings.HasSuffix(k, "/P2") {
			t.Errorf("unexpected violation in %s", k)
		}
	}

	doctored := round{aggs: append([]*stats.Agg(nil), ref.aggs...), panics: append([]string(nil), ref.panics...)}
	doctored.aggs[0] = rebuild(ref.aggs[0], func(i int, r *stats.RunResult) {
		if i == 3 {
			r.Recompute += 1 // a changed statistic
		}
		if i == 5 {
			r.Truncated = true
		}
	})
	doctored.aggs[1] = rebuild(ref.aggs[1], func(int, *stats.RunResult) {})
	doctored.aggs[1].AddFailed(stats.FailedRun{Seed: 1, Err: "watchdog"})
	doctored.panics[2], doctored.aggs[2] = "diverged", nil
	v := p.verify([]round{doctored}, ref, false)
	// Run 5 of cell 0 also differs from the reference, so it counts once.
	if want := 2 + 1 + 8; v.failed != want {
		t.Errorf("doctored round: %d failed, want %d (%v)", v.failed, want, v.notes)
	}
	if p.digest(doctored) == p.digest(ref) {
		t.Error("digest did not change with the results")
	}
}

func TestDigestStable(t *testing.T) {
	p := smallPrepared(t, "sweep-small", 3)
	a, b := p.digest(p.round()), p.digest(p.round())
	if a != b || len(a) != 64 {
		t.Fatalf("digest of the same seeds differs: %s vs %s", a, b)
	}
	q := smallPrepared(t, "sweep-small", 3)
	q.cells[0].seed++
	if q.digest(q.round()) == a {
		t.Error("digest did not change with the seeds")
	}
}

func TestVerifyMachineFlagsDoctoredResults(t *testing.T) {
	p := smallPrepared(t, "machine-contended", 6)
	ref := p.round()
	if v := p.verify([]round{ref}, ref, true); v.failed != 0 {
		t.Fatalf("clean machine round failed: %+v", v)
	}
	res := append([]machine.Result(nil), ref.results...)
	jobs := append([]machine.JobResult(nil), res[0].Jobs...)
	jobs[0].Run.Truncated = true
	res[0].Jobs = jobs
	res[1].PeakAllocGBs = 2 * p.mceiling
	doctored := round{results: res, fails: make([]string, len(res))}
	doctored.fails[2] = "panic"
	v := p.verify([]round{doctored}, ref, false)
	if v.failed != 3 {
		t.Errorf("doctored machine round: %d failed, want 3 (%v)", v.failed, v.notes)
	}
	if !peakAboveCeiling(res[1], p.mceiling) {
		t.Error("peak allocation above the ceiling not flagged")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics the
// benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), benchmark prints %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer())
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %s vs %s", i, b.Workloads[i].Name, w.name)
		}
	}
}

func TestFlagErrors(t *testing.T) {
	var out, errOut strings.Builder
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sweep-large", "--trace", "2"},
		{"--workload", "sweep-large", "--seconds", "0"},
	} {
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if out.Len() != 0 {
		t.Errorf("printed a result on a flag error: %q", out.String())
	}
}

// TestTracedMirrorMatches runs the traced mirror next to the real entry
// points: results must be identical, and the spans must nest per lane.
func TestTracedMirrorMatches(t *testing.T) {
	for _, name := range []string{"sweep-large", "machine-degraded"} {
		p := smallPrepared(t, name, 17)
		ref := p.round()
		tr := newTracer(p.workers + 1)
		root := tr.begin(0, "bench.round", 0)
		traced := p.tracedRound(tr, root.ID())
		root.end()
		if v := p.verify([]round{traced}, ref, false); v.failed != 0 {
			t.Errorf("%s: traced mirror differs from the real path: %v", name, v.notes)
		}
		if p.digest(traced) != p.digest(ref) {
			t.Errorf("%s: traced digest differs", name)
		}
		spans := tr.spans()
		perLayer, laneTime := layerSelf(spans)
		var sum int64
		for _, v := range perLayer {
			sum += v
		}
		if sum != laneTime || perLayer["stepsim"]+perLayer["machine"] == 0 {
			t.Errorf("%s: self times %v sum to %d, lane time %d", name, perLayer, sum, laneTime)
		}
	}
}
