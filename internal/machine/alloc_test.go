//go:build !race

// The race detector makes sync.Pool drop a random share of released
// items, so allocation counts are only pinned without it.

package machine_test

import (
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
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

// TestFaultWindowAllocFree pins that a machine fault window costs no
// allocation: the brownout and drain-outage open/close callbacks are
// bound once per run, so quadrupling both window rates on the same
// cohort may only cost a few allocations of slice growth.
func TestFaultWindowAllocFree(t *testing.T) {
	const slack = 8
	job := machine.JobSpec{
		Model: policy.B,
		Platform: platform.Config{
			App:    workload.App{Name: "cycles-64", Nodes: 64, TotalCkptGB: 1, ComputeHours: 4},
			System: failure.Titan,
		},
	}
	measure := func(ratePerHour float64) (float64, machine.Result) {
		cfg := machine.Config{
			Jobs: []machine.JobSpec{job, job},
			Faults: faultinject.MachineConfig{
				BrownoutRatePerHour:    ratePerHour,
				BrownoutMeanSeconds:    60,
				DrainOutageRatePerHour: ratePerHour,
				DrainOutageMeanSeconds: 60,
			},
		}
		res := machine.Simulate(cfg, 1)
		return testing.AllocsPerRun(20, func() { machine.Simulate(cfg, 1) }), res
	}
	low, lowRes := measure(3)
	high, highRes := measure(12)
	t.Logf("1x: %.0f allocs, %d brownouts, %d drain outages; 4x: %.0f allocs, %d brownouts, %d drain outages",
		low, lowRes.Brownouts, lowRes.DrainOutages, high, highRes.Brownouts, highRes.DrainOutages)
	if highRes.Brownouts < 2*lowRes.Brownouts+4 || highRes.DrainOutages < 2*lowRes.DrainOutages+4 {
		t.Fatalf("4x plan opened %d brownouts and %d drain outages against %d and %d at 1x: the rates do not scale the windows",
			highRes.Brownouts, highRes.DrainOutages, lowRes.Brownouts, lowRes.DrainOutages)
	}
	if high-low > slack {
		t.Errorf("4x fault plan allocated %.0f, 1x plan %.0f: %.0f more for %d more windows, want <= %d",
			high, low, high-low, highRes.Brownouts+highRes.DrainOutages-lowRes.Brownouts-lowRes.DrainOutages, slack)
	}
}
