//go:build !race

// The race detector makes sync.Pool drop a random share of released
// items, so allocation counts are only pinned without it.

package cluster

import "testing"

// TestLifecycleAllocFree pins that a released cluster is reused: New
// plus Release at a fixed size allocates nothing in steady state.
func TestLifecycleAllocFree(t *testing.T) {
	New(2272, 8).Release()
	allocs := testing.AllocsPerRun(100, func() {
		c := New(2272, 8)
		c.RecordBBCheckpointAll(1)
		c.Release()
	})
	if allocs != 0 {
		t.Fatalf("New+Release allocated %.1f times per run, want 0", allocs)
	}
}
