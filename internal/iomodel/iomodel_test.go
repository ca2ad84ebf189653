package iomodel

import (
	"math"
	"testing"
	"testing/quick"
)

func newSummit(t testing.TB) *Model {
	t.Helper()
	return New(DefaultSummit())
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	good := DefaultSummit()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.BBWriteGBs = 0 },
		func(c *Config) { c.BBReadGBs = -1 },
		func(c *Config) { c.NodePFSPeakGBs = 0 },
		func(c *Config) { c.AggregatePFSCeilingGBs = 0 },
		func(c *Config) { c.NetworkGBs = 0 },
		func(c *Config) { c.OptimalTasks = 0 },
		func(c *Config) { c.MaxTasks = c.OptimalTasks - 1 },
		func(c *Config) { c.HalfSaturationGB = 0 },
		func(c *Config) { c.DRAMSizeGB = 0 },
		func(c *Config) { c.BBSizeGB = 0 },
		func(c *Config) { c.DrainConcurrency = 0 },
	}
	for i, mutate := range cases {
		c := DefaultSummit()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	c := DefaultSummit()
	c.NetworkGBs = 0
	New(c)
}

// TestFig2bOptimalTaskCount: the 8-task curve must dominate 1, 4, 16 and
// 42 tasks at a large transfer size, matching the paper's conclusion.
func TestFig2bOptimalTaskCount(t *testing.T) {
	m := newSummit(t)
	const size = 64 // GB
	best := m.SingleNodeBandwidth(8, size)
	for _, tasks := range []int{1, 2, 4, 6, 16, 32, 42} {
		if bw := m.SingleNodeBandwidth(tasks, size); bw >= best {
			t.Errorf("%d tasks reaches %.2f GB/s >= 8-task %.2f GB/s", tasks, bw, best)
		}
	}
	// Peak must land in the paper's 13–13.5 GB/s single-node window.
	if best < 12 || best > 13.5 {
		t.Errorf("8-task peak %.2f GB/s outside [12, 13.5]", best)
	}
}

func TestSingleNodeBandwidthMonotonicInSize(t *testing.T) {
	m := newSummit(t)
	prev := 0.0
	for s := 0.01; s < 512; s *= 2 {
		bw := m.SingleNodeBandwidth(8, s)
		if bw < prev {
			t.Fatalf("single-node bandwidth not monotone at size %.3f", s)
		}
		prev = bw
	}
}

func TestAggregateBandwidthMonotonicInNodes(t *testing.T) {
	m := newSummit(t)
	const size = 32.0
	prev := 0.0
	for n := 1; n <= 4096; n *= 2 {
		bw := m.AggregateBandwidth(n, size)
		if bw < prev-1e-9 {
			t.Fatalf("aggregate bandwidth dropped at %d nodes: %.2f < %.2f", n, bw, prev)
		}
		prev = bw
	}
}

func TestAggregateBandwidthApproachesCeiling(t *testing.T) {
	m := newSummit(t)
	bw := m.AggregateBandwidth(4096, 64)
	ceiling := m.Config().AggregatePFSCeilingGBs
	if bw < 0.9*ceiling || bw > ceiling {
		t.Fatalf("4096-node bandwidth %.1f not in [0.9, 1.0]×ceiling %.1f", bw, ceiling)
	}
}

func TestAggregateSubLinearScaling(t *testing.T) {
	m := newSummit(t)
	// Doubling nodes must never more than double bandwidth.
	for n := 1; n <= 2048; n *= 2 {
		b1 := m.AggregateBandwidth(n, 16)
		b2 := m.AggregateBandwidth(2*n, 16)
		if b2 > 2*b1+1e-9 {
			t.Fatalf("super-linear scaling: %d→%d nodes went %.1f→%.1f", n, 2*n, b1, b2)
		}
	}
}

// TestMatrixLookupQuick property: interpolated values are bounded by the
// min and max of the four surrounding grid samples.
func TestMatrixLookupQuick(t *testing.T) {
	m := newSummit(t).Matrix()
	f := func(nodesRaw uint16, sizeRaw uint16) bool {
		nodes := int(nodesRaw%4000) + 1
		size := 0.002 + float64(sizeRaw%50000)/100.0 // up to 500 GB
		v := m.Lookup(nodes, size)
		if v <= 0 || math.IsNaN(v) {
			return false
		}
		xi, _ := m.locateNode(nodes)
		yi, _ := m.locateSize(size)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, b := range []float64{m.At(xi, yi), m.At(xi, yi+1), m.At(xi+1, yi), m.At(xi+1, yi+1)} {
			lo = math.Min(lo, b)
			hi = math.Max(hi, b)
		}
		return v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLookupClampsOutsideGrid(t *testing.T) {
	m := newSummit(t).Matrix()
	inside := m.Lookup(4096, 1024)
	if got := m.Lookup(100000, 100000); math.Abs(got-inside)/inside > 1e-9 {
		t.Fatalf("out-of-grid lookup %.2f != clamped corner %.2f", got, inside)
	}
	if got := m.Lookup(1, 1.0/4096); got != m.At(0, 0) {
		t.Fatalf("below-grid lookup %.4f != corner %.4f", got, m.At(0, 0))
	}
}

func TestLookupZeroInputs(t *testing.T) {
	m := newSummit(t).Matrix()
	if m.Lookup(0, 5) != 0 || m.Lookup(5, 0) != 0 {
		t.Fatal("Lookup with zero inputs must return 0")
	}
}

func TestPFSWriteTimeScalesWithVolume(t *testing.T) {
	m := newSummit(t)
	t1 := m.PFSWriteTime(100, 10)
	t2 := m.PFSWriteTime(100, 20)
	if t2 <= t1 {
		t.Fatalf("writing twice the data is not slower: %.2f vs %.2f", t2, t1)
	}
}

func TestPFSWriteTimeZero(t *testing.T) {
	m := newSummit(t)
	if m.PFSWriteTime(0, 10) != 0 || m.PFSWriteTime(10, 0) != 0 {
		t.Fatal("zero-node or zero-size write must take zero time")
	}
}

func TestSingleNodeFasterPerByteThanContended(t *testing.T) {
	m := newSummit(t)
	// The p-ckpt premise: one vulnerable node writing alone finishes its
	// share far faster than it would as 1/N of a full-job checkpoint.
	perNode := 284.0 // ~CHIMERA per-node GB
	solo := m.SingleNodePFSWriteTime(perNode)
	full := m.PFSWriteTime(2272, perNode)
	if solo >= full/4 {
		t.Fatalf("prioritized single-node write %.1fs not ≪ contended %.1fs", solo, full)
	}
}

func TestBBTimes(t *testing.T) {
	m := newSummit(t)
	if got, want := m.BBWriteTime(21), 10.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("BBWriteTime(21) = %.3f, want %.3f", got, want)
	}
	if got, want := m.BBReadTime(11), 2.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("BBReadTime(11) = %.3f, want %.3f", got, want)
	}
	if m.BBWriteTime(0) != 0 || m.BBReadTime(-1) != 0 {
		t.Fatal("non-positive sizes must take zero time")
	}
}

func TestNetworkTransferTime(t *testing.T) {
	m := newSummit(t)
	if got, want := m.NetworkTransferTime(125), 10.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("NetworkTransferTime(125) = %.3f, want %.3f", got, want)
	}
	if m.NetworkTransferTime(0) != 0 {
		t.Fatal("zero transfer must take zero time")
	}
}

func TestDrainTimeWaves(t *testing.T) {
	m := newSummit(t)
	conc := m.Config().DrainConcurrency
	// Twice the concurrency limit must take roughly twice one wave.
	oneWave := m.DrainTime(conc, 10)
	twoWaves := m.DrainTime(2*conc, 10)
	if twoWaves < 1.8*oneWave || twoWaves > 2.2*oneWave {
		t.Fatalf("two waves %.2fs not ~2× one wave %.2fs", twoWaves, oneWave)
	}
}

func TestDrainTimeBoundedByBBRead(t *testing.T) {
	m := newSummit(t)
	// A single node draining a large checkpoint cannot outrun its own BB
	// read bandwidth (5.5 GB/s).
	got := m.DrainTime(1, 550)
	if want := 100.0; got < want-1e-9 {
		t.Fatalf("drain of 550 GB took %.1fs, faster than BB read bound %.1fs", got, want)
	}
}

func TestDrainTimeMonotonicInNodes(t *testing.T) {
	m := newSummit(t)
	prev := 0.0
	for n := 1; n <= 4096; n *= 2 {
		d := m.DrainTime(n, 5)
		if d < prev-1e-9 {
			t.Fatalf("drain time dropped at %d nodes", n)
		}
		prev = d
	}
}

func TestMatrixRender(t *testing.T) {
	m := newSummit(t)
	out := m.Matrix().Render()
	if len(out) == 0 {
		t.Fatal("empty render")
	}
	// Header plus one row per node-count sample.
	wantRows := len(m.Matrix().Nodes()) + 1
	rows := 0
	for _, c := range out {
		if c == '\n' {
			rows++
		}
	}
	if rows != wantRows {
		t.Fatalf("render has %d rows, want %d", rows, wantRows)
	}
}

func TestReadEqualsWritePolicy(t *testing.T) {
	m := newSummit(t)
	if m.PFSReadTime(128, 7) != m.PFSWriteTime(128, 7) {
		t.Fatal("paper assumes identical read/write matrices")
	}
	if m.SingleNodePFSReadTime(7) != m.SingleNodePFSWriteTime(7) {
		t.Fatal("single-node read/write must match")
	}
}

// TestDefaultIsSharedAndReadOnly: Default is one model per process, and
// writing through the matrix's grid accessors cannot reach it — every
// run after such a write still prices against the sampled matrix.
func TestDefaultIsSharedAndReadOnly(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default built two models")
	}
	mx := Default().Matrix()
	before := mx.Lookup(100, 3)
	nodes, sizes := mx.Nodes(), mx.Sizes()
	for i := range nodes {
		nodes[i] = 1
	}
	for j := range sizes {
		sizes[j] = 1
	}
	if mx.Nodes()[1] != 2 || mx.Sizes()[0] != matrixMinSizeGB || mx.Lookup(100, 3) != before {
		t.Fatal("writing through Nodes()/Sizes() changed the shared matrix")
	}
}
