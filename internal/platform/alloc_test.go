//go:build !race

// Allocation counts are pinned only without the race detector, like the
// other AllocFree gates.

package platform_test

import (
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/iomodel"
	"pckpt/internal/platform"
	"pckpt/internal/workload"
)

// TestDefaultsAllocFree pins that defaulting a configuration builds no
// model: a nil IO and a nil Leads resolve to the process-wide shared
// models, so once those exist WithDefaults allocates nothing — no I/O
// matrix resampled, no lead-time mixture rebuilt, per run.
func TestDefaultsAllocFree(t *testing.T) {
	cfg := platform.Config{App: workload.Summit()[0], System: failure.Titan}
	got := cfg.WithDefaults() // warm-up: builds the shared models once
	if got.IO != iomodel.Default() || got.Leads != failure.DefaultLeadTimes() {
		t.Fatal("WithDefaults did not select the shared default models")
	}
	if allocs := testing.AllocsPerRun(100, func() { cfg.WithDefaults() }); allocs != 0 {
		t.Errorf("WithDefaults allocated %.0f times per call, want 0", allocs)
	}
}
