package experiments

import (
	"fmt"

	"pckpt/internal/failure"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/tablefmt"
	"pckpt/internal/workload"
)

// CrossValidation runs every catalogue entry through the app-level
// reference tier and the step tier on a matched platform configuration
// and identical seed sequences, and reports how closely they agree — the
// repo's standing check that the sweep engine tells exactly the story of
// the paper-style application-level model. Event counts (failures,
// mitigated, avoided) and wall time must agree exactly, and the
// exact-mismatch cell counts seeds whose full RunResult differs from the
// reference — it must be zero.
//
// Values keys are tier-qualified: "<model>/step/failures-diff",
// "/mitigated-diff", "/avoided-diff", "/wall-divergence" and
// "/exact-mismatch".
func CrossValidation(p Params) Result {
	p = p.withDefaults()
	// A small busy configuration: big enough to exercise episodes,
	// migrations, and recoveries across seeds, small enough to stay fast.
	app := workload.App{Name: "crossval-48", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24}
	sys := failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48}
	plat := platform.Config{App: app, System: sys}
	runs := p.Runs / 16
	if runs < 6 {
		runs = 6
	}

	t := tablefmt.NewTable("Model", "Tier", "Failures", "Mitigated", "Avoided", "Wall(h)", "Total ovh(h)")
	values := map[string]float64{}
	ref, step := AppTier(), StepTier()
	addRow := func(id policy.ID, tier string, agg *stats.Agg) (f, m, av int) {
		for _, r := range agg.Runs() {
			f += r.Failures
			m += r.Mitigated
			av += r.Avoided
		}
		t.AddRow(id.String(), tier,
			fmt.Sprint(f), fmt.Sprint(m), fmt.Sprint(av),
			fmt.Sprintf("%.2f", agg.MeanWallSeconds()/3600),
			fmt.Sprintf("%.2f", agg.MeanOverheads().Total()/3600))
		return
	}
	for _, id := range policy.All() {
		aAgg := runTier(p, ref, id, plat, runs, p.Seed)
		aF, aM, aA := addRow(id, ref.Name, aAgg)
		sAgg := runTier(p, step, id, plat, runs, p.Seed)
		sF, sM, sA := addRow(id, step.Name, sAgg)
		pre := id.String() + "/" + step.Name
		values[pre+"/failures-diff"] = float64(aF - sF)
		values[pre+"/mitigated-diff"] = float64(aM - sM)
		values[pre+"/avoided-diff"] = float64(aA - sA)
		wallDiv := 0.0
		if aw := aAgg.MeanWallSeconds(); aw > 0 {
			wallDiv = (sAgg.MeanWallSeconds() - aw) / aw
		}
		values[pre+"/wall-divergence"] = wallDiv
		mismatch := 0
		for i, ar := range aAgg.Runs() {
			if ar != sAgg.Runs()[i] {
				mismatch++
			}
		}
		values[pre+"/exact-mismatch"] = float64(mismatch)
	}
	text := t.String() + fmt.Sprintf("\n(%d matched seeds per model; both tiers share internal/platform quantities and the internal/policy catalogue; the step tier must match the app tier bit for bit)\n", runs)
	return Result{ID: "crossval", Title: "Cross-validation: app-level reference vs step tiers on matched seeds", Text: text, Values: values}
}
