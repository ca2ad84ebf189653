// Model selection: the paper's Recommendation (after Observation 6)
// operationalised. For every Table I application it applies the rule —
// "systems with a high fault rate and low lead times should use p-ckpt
// (P1) for large applications with short runtimes; long-running
// applications should use hybrid p-ckpt (P2) irrespective of size and
// failure rate" — and then validates the choice by simulating both
// candidates plus the analytical Eq. (8) verdict.
//
//	go run ./examples/model_selection [-runs 150]
package main

import (
	"flag"
	"fmt"
	"runtime"

	"pckpt/internal/analytic"
	"pckpt/internal/experiments"
	"pckpt/internal/failure"
	"pckpt/internal/lm"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/stepsim"
	"pckpt/internal/tablefmt"
	"pckpt/internal/workload"
)

// recommend applies the paper's rule of thumb.
func recommend(app workload.App, sys failure.System) policy.ID {
	longRunning := app.ComputeHours >= 360
	large := app.TotalCkptGB >= 1e4
	highFailureRate := sys.JobFailureRate(app.Nodes)*app.ComputeSeconds() >= 3
	if longRunning {
		return policy.P2
	}
	if large && highFailureRate {
		return policy.P1
	}
	return policy.P2
}

func main() {
	runs := flag.Int("runs", 150, "simulation runs per configuration")
	flag.Parse()

	sys := failure.Titan
	step, workers := experiments.StepTier(), runtime.GOMAXPROCS(0)
	t := tablefmt.NewTable("App", "recommended", "P1 red.", "P2 red.", "simulated best", "Eq.(8) verdict (α=3)")
	for _, app := range workload.Summit() {
		rec := recommend(app, sys)
		plat := platform.Config{App: app, System: sys}
		base := experiments.SimulateTierN(step, policy.B, plat, *runs, 3, workers)
		baseTotal := base.MeanOverheads().Total()
		reds := map[policy.ID]float64{}
		for _, m := range []policy.ID{policy.P1, policy.P2} {
			agg := experiments.SimulateTierN(step, m, plat, *runs, 3, workers)
			reds[m] = stats.PercentReduction(baseTotal, agg.MeanOverheads().Total())
		}
		best := policy.P1
		if reds[policy.P2] > reds[policy.P1] {
			best = policy.P2
		}
		// The Eq. (8) view: does p-ckpt beat pure LM at the default α?
		sigma := (stepsim.Config{Model: policy.P2, Config: plat}).Sigma()
		if sigma >= analytic.SigmaMax {
			sigma = analytic.SigmaMax - 1e-9
		}
		verdict := "LM"
		if analytic.PckptWins(lm.DefaultAlpha, sigma, 1, 1) {
			verdict = "p-ckpt"
		}
		t.AddRow(app.Name, rec.String(),
			tablefmt.Percent(reds[policy.P1]),
			tablefmt.Percent(reds[policy.P2]),
			best.String(), verdict)
	}
	fmt.Println("paper Recommendation applied to the Table I catalogue (Titan failures):")
	fmt.Println(t.String())
	fmt.Println("note: with the Table I runtimes (all ≥120 h) the checkpoint-overhead savings of")
	fmt.Println("P2 dominate, matching the paper's advice that long-running applications use P2;")
	fmt.Println("P1's edge appears on failure-prone systems and short-running large apps (Obs. 6/9).")
}
