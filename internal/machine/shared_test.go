package machine_test

import (
	"reflect"
	"testing"

	"pckpt/internal/experiments"
	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/iomodel"
	"pckpt/internal/machine"
	"pckpt/internal/policy"
)

// TestSharedDefaultsAcrossWorkers runs both worker pools — machine
// cohorts and a step-tier sweep — with two workers on configurations
// that leave IO and Leads nil, so every run prices against the one
// process-wide I/O model and samples the one shared lead-time mixture.
// Under the race detector (make race, make race-machine) any write to
// the shared models is a reported race; without it, the results must
// still equal one worker's, and the shared matrix must still equal a
// freshly built one value for value.
func TestSharedDefaultsAcrossWorkers(t *testing.T) {
	cfg := machine.Config{
		Jobs: []machine.JobSpec{testJob(policy.P2, 0), testJob(policy.M2, 0), testJob(policy.B, 600)},
		Faults: faultinject.MachineConfig{
			BrownoutRatePerHour:    2,
			DrainOutageRatePerHour: 2,
		},
	}
	if par, seq := machine.SimulateN(cfg, 4, 5, 2), machine.SimulateN(cfg, 4, 5, 1); !reflect.DeepEqual(par, seq) {
		t.Fatal("machine.SimulateN on the shared defaults depends on the worker count")
	}
	plat := cfg.Jobs[0].Platform
	step := experiments.StepTier()
	par := experiments.SimulateTierN(step, policy.P2, plat, 6, 5, 2)
	seq := experiments.SimulateTierN(step, policy.P2, plat, 6, 5, 1)
	if !reflect.DeepEqual(par.Runs(), seq.Runs()) {
		t.Fatal("SimulateTierN on the shared defaults depends on the worker count")
	}

	a, b := plat.WithDefaults(), plat.WithDefaults()
	if a.IO != iomodel.Default() || b.IO != a.IO {
		t.Fatalf("WithDefaults returned I/O models %p and %p, want the shared %p", a.IO, b.IO, iomodel.Default())
	}
	if a.Leads != failure.DefaultLeadTimes() || b.Leads != a.Leads {
		t.Fatal("WithDefaults did not return the shared lead-time model")
	}

	shared, fresh := iomodel.Default().Matrix(), iomodel.New(iomodel.DefaultSummit()).Matrix()
	if !reflect.DeepEqual(shared.Nodes(), fresh.Nodes()) || !reflect.DeepEqual(shared.Sizes(), fresh.Sizes()) {
		t.Fatal("shared matrix grid differs from a freshly built one")
	}
	for i := range fresh.Nodes() {
		for j := range fresh.Sizes() {
			if shared.At(i, j) != fresh.At(i, j) {
				t.Fatalf("shared matrix[%d][%d] = %g, fresh build %g", i, j, shared.At(i, j), fresh.At(i, j))
			}
		}
	}
}
