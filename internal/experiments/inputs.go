package experiments

import (
	"fmt"
	"strings"

	"pckpt/internal/deshlog"
	"pckpt/internal/failure"
	"pckpt/internal/iomodel"
	"pckpt/internal/rng"
	"pckpt/internal/tablefmt"
	"pckpt/internal/workload"
)

// Table1 renders the Table I workload catalogue.
func Table1(p Params) Result {
	t := tablefmt.NewTable("Application", "Nodes", "Ckpt Size (GB)", "Per-node (GB)", "Compute (h)")
	values := map[string]float64{}
	for _, a := range workload.Summit() {
		t.AddRow(a.Name,
			fmt.Sprint(a.Nodes),
			fmt.Sprintf("%.4g", a.TotalCkptGB),
			fmt.Sprintf("%.4g", a.PerNodeGB()),
			fmt.Sprintf("%g", a.ComputeHours))
		values[a.Name+"/per-node-GB"] = a.PerNodeGB()
	}
	return Result{ID: "table1", Title: "Table I: HPC workload characteristics", Text: t.String(), Values: values}
}

// Table3 renders the Table III failure distribution catalogue.
func Table3(p Params) Result {
	t := tablefmt.NewTable("HPC System", "Shape", "Scale", "Nodes", "System MTBF (h)")
	values := map[string]float64{}
	for _, s := range failure.Systems() {
		t.AddRow(s.Name,
			fmt.Sprintf("%.4f", s.Shape),
			fmt.Sprintf("%.4f", s.ScaleHours),
			fmt.Sprint(s.Nodes),
			fmt.Sprintf("%.2f", s.MeanInterarrivalHours()))
		values[s.Name+"/mtbf-h"] = s.MeanInterarrivalHours()
	}
	return Result{ID: "table3", Title: "Table III: Weibull distributions for failure generation", Text: t.String(), Values: values}
}

// Fig2a generates a six-month synthetic log, mines it Desh-style, and
// renders the per-sequence lead-time statistics (the paper's boxplot
// figure as a table), then validates the mined model against the
// generating one.
func Fig2a(p Params) Result {
	p = p.withDefaults()
	src := rng.New(p.Seed)
	failures := 40 * p.Runs // scale mining effort with requested runs
	entries, planted := deshlog.Generate(deshlog.GenConfig{
		Nodes:         1024,
		Duration:      6 * 30 * 24 * 3600,
		Failures:      failures,
		NoisePerChain: 10,
		PartialChains: failures / 10,
	}, src)
	chains := deshlog.Mine(entries)
	st := deshlog.Stats(chains)
	var b strings.Builder
	fmt.Fprintf(&b, "synthetic log: %d entries, %d planted chains, %d mined\n\n", len(entries), len(planted), len(chains))
	b.WriteString(deshlog.RenderStats(st))
	values := map[string]float64{
		"planted": float64(len(planted)),
		"mined":   float64(len(chains)),
	}
	if model, err := deshlog.ToLeadModel(chains); err == nil {
		values["mined-mean-lead-s"] = model.Mean()
		values["generator-mean-lead-s"] = failure.DefaultLeadTimes().Mean()
		fmt.Fprintf(&b, "\nmined model mean lead: %.2f s (generator: %.2f s)\n", model.Mean(), failure.DefaultLeadTimes().Mean())
	}
	return Result{ID: "fig2a", Title: "Fig. 2a: lead-time distribution of mined failure sequences", Text: b.String(), Values: values}
}

// Fig2b renders the single-node bandwidth-vs-task-count curves.
func Fig2b(p Params) Result {
	io := iomodel.Default()
	sizes := []float64{0.016, 0.064, 0.25, 1, 4, 16, 64}
	tasks := []int{1, 2, 4, 8, 16, 32, 42}
	header := []string{"tasks\\GB"}
	for _, s := range sizes {
		header = append(header, fmt.Sprintf("%.3g", s))
	}
	t := tablefmt.NewTable(header...)
	values := map[string]float64{}
	for _, k := range tasks {
		row := []string{fmt.Sprint(k)}
		for _, s := range sizes {
			row = append(row, fmt.Sprintf("%.2f", io.SingleNodeBandwidth(k, s)))
		}
		t.AddRow(row...)
	}
	values["peak-8task-GBs"] = io.SingleNodeBandwidth(8, 64)
	values["peak-1task-GBs"] = io.SingleNodeBandwidth(1, 64)
	values["peak-42task-GBs"] = io.SingleNodeBandwidth(42, 64)
	text := t.String() + "\n(bandwidth in GB/s; the 8-task row dominates, matching the paper)\n"
	return Result{ID: "fig2b", Title: "Fig. 2b: single-node I/O bandwidth vs task count", Text: text, Values: values}
}

// Fig2c renders the weak-scaling performance matrix with a heat map.
func Fig2c(p Params) Result {
	io := iomodel.Default()
	mx := io.Matrix()
	var b strings.Builder
	b.WriteString(mx.Render())
	b.WriteString("\nheat map (darker = higher aggregate GB/s):\n")
	nodes := mx.Nodes()
	sizes := mx.Sizes()
	lo, hi := mx.At(0, 0), io.Config().AggregatePFSCeilingGBs
	for i := range nodes {
		fmt.Fprintf(&b, "%6d |", nodes[i])
		for j := range sizes {
			b.WriteString(tablefmt.HeatCell(mx.At(i, j), lo, hi))
		}
		b.WriteByte('\n')
	}
	values := map[string]float64{
		"corner-min-GBs": mx.At(0, 0),
		"corner-max-GBs": mx.At(len(nodes)-1, len(sizes)-1),
	}
	return Result{ID: "fig2c", Title: "Fig. 2c: weak-scaling I/O performance matrix", Text: b.String(), Values: values}
}
