// Protocol trace: run the node-level coordinated prioritized checkpoint
// protocol (Sec. VI of the paper) on a small cluster and print the full
// event log — the p-ckpt request broadcast, the lead-time priority queue
// draining vulnerable nodes one by one over the uncontended PFS path, a
// live migration aborted by a shorter-lead prediction, the pfs-commit
// broadcast, and the healthy nodes' phase-2 commit.
//
//	go run ./examples/protocol_trace
package main

import (
	"fmt"

	"pckpt/internal/iomodel"
	"pckpt/internal/lm"
	"pckpt/internal/pckpt"
)

func main() {
	cfg := pckpt.Config{
		Nodes:     32,
		PerNodeGB: 40, // S3D-like footprint: ≈3s prioritized write, θ≈9.6s
		IO:        iomodel.Default(),
		LM:        lm.Default(),
		Hybrid:    true,
	}
	theta := cfg.LM.Theta(cfg.PerNodeGB)
	fmt.Printf("cluster: %d nodes, %g GB/node, θ = %.2f s\n\n", cfg.Nodes, cfg.PerNodeGB, theta)

	// A busy episode: node 7 has plenty of lead and starts migrating;
	// node 3's short-lead prediction forces p-ckpt, aborting the
	// migration; nodes 12 and 20 become vulnerable during phase 1 and
	// join the priority queue — 20 with less lead, so it overtakes 12.
	preds := []pckpt.Prediction{
		{Node: 7, At: 0, Lead: 3 * theta},
		{Node: 3, At: 2, Lead: 0.5 * theta},
		{Node: 12, At: 4, Lead: 500},
		{Node: 20, At: 5, Lead: 60},
	}
	res := pckpt.Run(cfg, preds)

	for _, line := range res.Trace {
		fmt.Println(line)
	}
	fmt.Println()
	fmt.Printf("commit order (by lead-time priority): %v\n", res.CommitOrder)
	fmt.Printf("phase 1 ended %.2fs, phase 2 ended %.2fs\n", res.Phase1End, res.Phase2End)
	fmt.Printf("mitigated %d/%d vulnerable nodes\n", res.Mitigated(), len(res.Outcomes))
	for _, o := range res.Outcomes {
		fmt.Printf("  node %-2d %-20s done %7.2fs deadline %7.2fs mitigated=%v\n",
			o.Node, o.Action, o.DoneAt, o.Deadline, o.Mitigated)
	}
}
