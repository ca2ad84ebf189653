//go:build !race

// The race detector makes sync.Pool drop a random share of released
// items, so allocation counts are only pinned without it.

package machine_test

import (
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/machine"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/workload"
)

// TestArbiteredCycleAllocFree pins that a checkpoint cycle on a shared
// machine allocates nothing in steady state: every drain is a flow at
// the arbiter, so the flow, its timer callbacks, and the app's drain
// completion must all be reused. Two failure-free model-B tenants share
// the machine; doubling their length (22 more cycles each) may only
// cost a few allocations of slice growth.
func TestArbiteredCycleAllocFree(t *testing.T) {
	const slack = 8
	measure := func(hours float64, wantCkpts int) float64 {
		job := machine.JobSpec{
			Model: policy.B,
			Platform: platform.Config{
				App:    workload.App{Name: "cycles-64", Nodes: 64, TotalCkptGB: 1, ComputeHours: hours},
				System: failure.Titan,
			},
		}
		cfg := machine.Config{Jobs: []machine.JobSpec{job, job}}
		for _, j := range machine.Simulate(cfg, 1).Jobs {
			if j.Run.Failures != 0 || j.Run.Checkpoints != wantCkpts {
				t.Fatalf("%gh job %d: failures %d, checkpoints %d; want 0, %d",
					hours, j.Job, j.Run.Failures, j.Run.Checkpoints, wantCkpts)
			}
		}
		return testing.AllocsPerRun(20, func() { machine.Simulate(cfg, 1) })
	}
	short, long := measure(2, 21), measure(4, 43)
	t.Logf("%.0f allocs at 2h, %.0f at 4h", short, long)
	if long-short > slack {
		t.Errorf("4h machine run allocated %.0f, 2h run %.0f: %.0f more for 44 more cycles, want <= %d",
			long, short, long-short, slack)
	}
}
