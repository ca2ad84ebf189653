//go:build !race

// The race detector makes sync.Pool drop a random share of released
// items, so allocation counts are only pinned without it.

package stepsim_test

import (
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/stepsim"
	"pckpt/internal/workload"
)

// cyclePlatform is a failure-free model-B job on Titan: a 64-node app
// whose 1 GB checkpoint keeps every cycle short, so the run is nothing
// but compute/BB-write/drain cycles.
func cyclePlatform(hours float64) platform.Config {
	return platform.Config{
		App:    workload.App{Name: "cycles-64", Nodes: 64, TotalCkptGB: 1, ComputeHours: hours},
		System: failure.Titan,
	}
}

// cycleCost runs one seed-1 job through run at 2 and 4 compute hours,
// checks that both are failure-free with the pinned checkpoint counts,
// and returns the allocations of each.
func cycleCost(t *testing.T, run func(cfg stepsim.Config) stats.RunResult) (short, long float64) {
	t.Helper()
	measure := func(hours float64, wantCkpts int) float64 {
		cfg := stepsim.Config{Model: policy.B, Config: cyclePlatform(hours)}
		res := run(cfg)
		if res.Failures != 0 || res.Predicted != 0 || res.Checkpoints != wantCkpts {
			t.Fatalf("%gh run: failures %d, predicted %d, checkpoints %d; want 0, 0, %d",
				hours, res.Failures, res.Predicted, res.Checkpoints, wantCkpts)
		}
		return testing.AllocsPerRun(20, func() { run(cfg) })
	}
	return measure(2, 21), measure(4, 43)
}

// TestCheckpointCycleAllocFree pins that a checkpoint cycle allocates
// nothing in steady state: doubling the job's length (22 more cycles)
// may only cost a few allocations of slice growth, on a solo run and
// on an arbiter-less app admitted mid-run on a shared engine.
func TestCheckpointCycleAllocFree(t *testing.T) {
	const slack = 8
	solo := func(cfg stepsim.Config) stats.RunResult { return stepsim.Simulate(cfg, 1) }
	shared := func(cfg stepsim.Config) stats.RunResult {
		eng := stepsim.NewEngine()
		var h *stepsim.AppHandle
		eng.AtNamed(5, "admit", func() {
			h = stepsim.StartApp(eng, cfg, 1, stepsim.AppOptions{AppIndex: 1})
		})
		eng.RunAll()
		eng.Release()
		h.Release()
		return h.Result()
	}
	for _, c := range []struct {
		name string
		run  func(stepsim.Config) stats.RunResult
	}{{"Simulate", solo}, {"StartApp", shared}} {
		short, long := cycleCost(t, c.run)
		t.Logf("%s: %.0f allocs at 2h, %.0f at 4h", c.name, short, long)
		if long-short > slack {
			t.Errorf("%s: 4h run allocated %.0f, 2h run %.0f: %.0f more for 22 more cycles, want <= %d",
				c.name, long, short, long-short, slack)
		}
	}
}
