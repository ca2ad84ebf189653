// Command iomatrix prints the I/O performance model: the weak-scaling
// aggregate-bandwidth matrix (the paper's Fig. 2c) and, with -single, the
// single-node task-count curves (Fig. 2b).
package main

import (
	"flag"
	"fmt"

	"pckpt/internal/iomodel"
	"pckpt/internal/tablefmt"
)

func main() {
	var (
		single = flag.Bool("single", false, "print single-node task-count curves instead of the matrix")
		query  = flag.Bool("query", false, "print example checkpoint-time queries for the Table I workloads")
	)
	flag.Parse()

	io := iomodel.Default()
	switch {
	case *single:
		sizes := []float64{0.016, 0.064, 0.25, 1, 4, 16, 64}
		header := []string{"tasks\\GB"}
		for _, s := range sizes {
			header = append(header, fmt.Sprintf("%.3g", s))
		}
		t := tablefmt.NewTable(header...)
		for _, tasks := range []int{1, 2, 4, 8, 16, 32, 42} {
			row := []string{fmt.Sprint(tasks)}
			for _, s := range sizes {
				row = append(row, fmt.Sprintf("%.2f", io.SingleNodeBandwidth(tasks, s)))
			}
			t.AddRow(row...)
		}
		fmt.Println("single-node PFS bandwidth (GB/s) by MPI task count and transfer size:")
		fmt.Println(t.String())
	case *query:
		t := tablefmt.NewTable("nodes", "per-node GB", "BB write", "PFS write (all)", "PFS write (1 node)", "drain")
		for _, c := range []struct {
			nodes int
			gb    float64
		}{{2272, 284.5}, {1515, 98.8}, {505, 40.0}, {126, 0.81}, {64, 0.05}} {
			t.AddRow(fmt.Sprint(c.nodes), fmt.Sprintf("%.2f", c.gb),
				fmt.Sprintf("%.1fs", io.BBWriteTime(c.gb)),
				fmt.Sprintf("%.1fs", io.PFSWriteTime(c.nodes, c.gb)),
				fmt.Sprintf("%.1fs", io.SingleNodePFSWriteTime(c.gb)),
				fmt.Sprintf("%.1fs", io.DrainTime(c.nodes, c.gb)))
		}
		fmt.Println("checkpoint-path timings for Table I-scale workloads:")
		fmt.Println(t.String())
	default:
		fmt.Println("aggregate PFS bandwidth (GB/s) by node count and per-node transfer size:")
		fmt.Println(io.Matrix().Render())
	}
}
