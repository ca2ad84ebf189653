package main

import (
	"fmt"
	"reflect"
	"sort"

	"pckpt/internal/crmodel"
	"pckpt/internal/experiments"
	"pckpt/internal/machine"
	"pckpt/internal/stats"
)

// verdict is what the output checks found in a set of rounds.
type verdict struct {
	// attempted and failed count runs: application runs on a sweep,
	// cohort runs on a machine.
	attempted, failed int
	// appRuns counts the application runs attempted (on a machine, each
	// tenant of a cohort run is one), and violations those of them that
	// completed but break an accounting invariant. A cohort run whose peak
	// allocation tops the ceiling counts all its tenants as violating.
	appRuns, violations int
	// cohortViolations counts cohort runs with any violation.
	cohortViolations int
	// violationsBy counts violating runs per configuration label (sweep
	// cell, or machine tenant) over all rounds checked.
	violationsBy map[string]int
	// notes keeps the first few failure messages.
	notes []string
}

func (v *verdict) fail(n int, format string, args ...any) {
	v.failed += n
	if len(v.notes) < 5 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// serialStride picks the seeds of the determinism re-run: every
// serialStride-th run of the reference round, offset so it samples
// other seeds than the sweep's own stride-16 cross-check.
const serialStride = 8

// verify checks every run of rounds against the run invariants and
// against ref, the first untraced round: all rounds use the same seeds,
// so any difference is a determinism failure. With serial set it also
// re-runs a sample of ref's seeds serially, one worker, through the
// public single-run entry point and requires identical results.
func (p *prepared) verify(rounds []round, ref round, serial bool) verdict {
	v := verdict{violationsBy: map[string]int{}}
	for _, rd := range rounds {
		if p.w.machine {
			p.verifyMachine(&v, rd, ref)
		} else {
			p.verifySweep(&v, rd, ref)
		}
	}
	if serial {
		if p.w.machine {
			p.serialMachine(&v, ref)
		} else {
			p.serialSweep(&v, ref)
		}
	}
	return v
}

func (p *prepared) verifySweep(v *verdict, rd, ref round) {
	for ci, c := range p.cells {
		v.attempted += p.runs
		v.appRuns += p.runs
		if rd.panics[ci] != "" {
			v.fail(p.runs, "%s: %s", c, rd.panics[ci])
			continue
		}
		agg := rd.aggs[ci]
		for _, f := range agg.Failed() {
			v.fail(1, "%s: seed %#x: %s", c, f.Seed, f.Err)
		}
		runs := agg.Runs()
		var want []stats.RunResult
		if ref.aggs[ci] != nil {
			want = ref.aggs[ci].Runs()
		}
		for i, r := range runs {
			switch {
			case len(want) != len(runs) || want[i] != r:
				v.fail(1, "%s: run %d differs from the same seed's first result", c, i)
			case r.Truncated && !p.w.mayTruncate:
				v.fail(1, "%s: run %d truncated", c, i)
			default:
				if runViolation(r, c.derived.ComputeSeconds) != "" {
					v.violations++
					v.violationsBy[c.String()]++
				}
			}
		}
	}
}

func (p *prepared) verifyMachine(v *verdict, rd, ref round) {
	for r, res := range rd.results {
		v.attempted++
		v.appRuns += len(p.mjobs)
		if rd.fails != nil && rd.fails[r] != "" {
			v.fail(1, "cohort run %d: %s", r, rd.fails[r])
			continue
		}
		if r >= len(ref.results) || !reflect.DeepEqual(res, ref.results[r]) {
			v.fail(1, "cohort run %d differs from the same seed's first result", r)
			continue
		}
		if truncated(res) && !p.w.mayTruncate {
			v.fail(1, "cohort run %d: a tenant ended truncated", r)
			continue
		}
		bad := 0
		for j, jr := range res.Jobs {
			if runViolation(jr.Run, p.mcompute[j]) != "" {
				bad++
				v.violationsBy[fmt.Sprintf("job%d/%s", j, jr.Model)]++
			}
		}
		if peakAboveCeiling(res, p.mceiling) {
			bad = len(res.Jobs)
			v.violationsBy["peak-above-ceiling"]++
		}
		v.violations += bad
		if bad > 0 {
			v.cohortViolations++
		}
	}
}

func truncated(res machine.Result) bool {
	for _, jr := range res.Jobs {
		if jr.Run.Truncated {
			return true
		}
	}
	return false
}

// serialSweep re-runs every serialStride-th seed of each cell alone and
// compares it with the pooled result of the same seed.
func (p *prepared) serialSweep(v *verdict, ref round) {
	step := experiments.StepTier()
	for ci, c := range p.cells {
		agg := ref.aggs[ci]
		if agg == nil || len(agg.Failed()) > 0 {
			continue // already counted failed; indices no longer align
		}
		runs := agg.Runs()
		for i := serialStride / 2; i < p.runs; i += serialStride {
			got, fail := safeSimulate(step, c, crmodel.RunSeed(c.seed, i))
			if fail != "" || got != runs[i] {
				v.fail(1, "%s: run %d differs when re-run serially", c, i)
			}
		}
	}
}

// serialMachine re-runs every serialStride-th cohort seed alone through
// machine.Simulate — SimulateN with one worker runs exactly this — and
// compares it with the pooled result.
func (p *prepared) serialMachine(v *verdict, ref round) {
	for r := serialStride / 2; r < len(ref.results); r += serialStride {
		got, fail := safeMachine(p, crmodel.RunSeed(p.seed, r))
		if fail != "" || !reflect.DeepEqual(got, ref.results[r]) {
			v.fail(1, "cohort run %d differs when re-run serially", r)
		}
	}
}

// digest hashes the reference round's results in seed order.
func (p *prepared) digest(ref round) string {
	d := newDigest()
	if p.w.machine {
		for _, res := range ref.results {
			d.add(res)
		}
		return d.sum()
	}
	for ci, c := range p.cells {
		d.add(c.String())
		if ref.aggs[ci] == nil {
			d.add(ref.panics[ci])
			continue
		}
		for _, r := range ref.aggs[ci].Runs() {
			d.add(r)
		}
		for _, f := range ref.aggs[ci].Failed() {
			d.add(f)
		}
	}
	return d.sum()
}

// sortedCounts renders a label → count map in label order.
func sortedCounts(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf(" %s=%d", k, m[k])
	}
	if s == "" {
		return " none"
	}
	return s
}
