package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewInitialState(t *testing.T) {
	c := New(4, 2)
	if c.Len() != 4 || c.SparesLeft() != 2 {
		t.Fatalf("Len=%d spares=%d", c.Len(), c.SparesLeft())
	}
	for i := 0; i < 4; i++ {
		n := c.Node(i)
		if n.State != Healthy || n.BBProgress >= 0 || n.PFSProgress >= 0 {
			t.Fatalf("node %d not pristine: %+v", i, n)
		}
	}
}

func TestNewPanics(t *testing.T) {
	for i, fn := range []func(){func() { New(0, 1) }, func() { New(3, -1) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestNodeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(3, 0).Node(3)
}

func TestVulnerableLifecycle(t *testing.T) {
	c := New(5, 1)
	if err := c.MarkVulnerable(2, 100); err != nil {
		t.Fatal(err)
	}
	if got := c.Vulnerable(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Vulnerable() = %v", got)
	}
	if c.Node(2).PredictedFailAt != 100 {
		t.Fatal("predicted fail time not recorded")
	}
	// Re-marking with a newer prediction is allowed.
	if err := c.MarkVulnerable(2, 50); err != nil {
		t.Fatal(err)
	}
	c.MarkHealthy(2)
	if c.Node(2).State != Healthy || c.Node(2).PredictedFailAt != 0 {
		t.Fatal("MarkHealthy did not reset")
	}
}

func TestMigratingRequiresVulnerable(t *testing.T) {
	c := New(3, 0)
	if err := c.MarkMigrating(0); err == nil {
		t.Fatal("migrating a healthy node accepted")
	}
	c.MarkVulnerable(0, 10)
	if err := c.MarkMigrating(0); err != nil {
		t.Fatal(err)
	}
	if got := c.Vulnerable(); len(got) != 1 {
		t.Fatalf("migrating node not reported vulnerable: %v", got)
	}
}

func TestFailAndReplace(t *testing.T) {
	c := New(3, 1)
	c.RecordBBCheckpointAll(50)
	c.RecordPFSCheckpointAll(40)
	c.Fail(1)
	if c.Node(1).State != Failed {
		t.Fatal("node not failed")
	}
	if c.Node(1).BBProgress >= 0 {
		t.Fatal("failed node kept its burst buffer")
	}
	if c.Node(1).PFSProgress != 40 {
		t.Fatal("PFS copy must survive a node failure")
	}
	if err := c.Replace(1); err != nil {
		t.Fatal(err)
	}
	if c.Node(1).State != Healthy || c.Node(1).Replacements != 1 {
		t.Fatalf("replacement wrong: %+v", c.Node(1))
	}
	if c.SparesLeft() != 0 {
		t.Fatalf("spares left %d, want 0", c.SparesLeft())
	}
}

func TestReplaceExhaustsSpares(t *testing.T) {
	c := New(2, 1)
	c.Fail(0)
	if err := c.Replace(0); err != nil {
		t.Fatal(err)
	}
	c.Fail(1)
	if err := c.Replace(1); err == nil {
		t.Fatal("replacement from empty pool accepted")
	}
}

func TestReplaceRequiresFailed(t *testing.T) {
	c := New(2, 1)
	if err := c.Replace(0); err == nil {
		t.Fatal("replacing a healthy node accepted")
	}
}

func TestMarkVulnerableOnFailed(t *testing.T) {
	c := New(2, 1)
	c.Fail(0)
	if err := c.MarkVulnerable(0, 10); err == nil {
		t.Fatal("marking a failed node vulnerable accepted")
	}
}

func TestMarkHealthyOnFailedPanics(t *testing.T) {
	c := New(2, 1)
	c.Fail(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.MarkHealthy(0)
}

func TestCountState(t *testing.T) {
	c := New(5, 2)
	c.MarkVulnerable(0, 1)
	c.MarkVulnerable(1, 2)
	c.Fail(4)
	if c.CountState(Healthy) != 2 || c.CountState(Vulnerable) != 2 || c.CountState(Failed) != 1 {
		t.Fatalf("counts wrong: H=%d V=%d F=%d", c.CountState(Healthy), c.CountState(Vulnerable), c.CountState(Failed))
	}
}

func TestRecoverableProgress(t *testing.T) {
	c := New(3, 1)
	// Coordinated checkpoint at progress 100 staged on BBs, earlier one
	// at 60 fully on PFS.
	c.RecordPFSCheckpointAll(60)
	c.RecordBBCheckpointAll(100)
	c.Fail(1)
	// Node 1 lost its BB; it recovers from PFS@60. Healthy nodes hold
	// BB@100 but must roll back to the consistent cut at 60.
	if got := c.RecoverableProgress(1); got != 60 {
		t.Fatalf("RecoverableProgress = %g, want 60", got)
	}
}

func TestRecoverableProgressAfterDrain(t *testing.T) {
	c := New(3, 1)
	c.RecordBBCheckpointAll(100)
	c.RecordPFSCheckpointAll(100) // drain completed
	c.Fail(2)
	if got := c.RecoverableProgress(2); got != 100 {
		t.Fatalf("RecoverableProgress = %g, want 100", got)
	}
}

func TestRecoverableProgressNoCheckpoint(t *testing.T) {
	c := New(2, 1)
	c.Fail(0)
	if got := c.RecoverableProgress(0); got >= 0 {
		t.Fatalf("RecoverableProgress = %g, want negative (restart)", got)
	}
}

// TestStateMachineQuick drives a random operation sequence and checks
// invariants: vulnerable+migrating counts match Vulnerable(), spares
// never go negative, and failed nodes never appear in Vulnerable().
func TestStateMachineQuick(t *testing.T) {
	f := func(ops []uint8) bool {
		c := New(8, 100)
		for _, op := range ops {
			id := int(op) % 8
			switch (op / 8) % 5 {
			case 0:
				c.MarkVulnerable(id, float64(op))
			case 1:
				if c.Node(id).State == Vulnerable {
					c.MarkMigrating(id)
				}
			case 2:
				if c.Node(id).State != Failed {
					c.MarkHealthy(id)
				}
			case 3:
				c.Fail(id)
			case 4:
				if c.Node(id).State == Failed {
					c.Replace(id)
				}
			}
		}
		if c.SparesLeft() < 0 {
			return false
		}
		vuln := map[int]bool{}
		for _, id := range c.Vulnerable() {
			vuln[id] = true
			if s := c.Node(id).State; s != Vulnerable && s != Migrating {
				return false
			}
		}
		return len(vuln) == c.CountState(Vulnerable)+c.CountState(Migrating)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSupersedeDuringMigration pins the supersede-during-migration
// contract: a newer prediction landing on a Migrating node refreshes the
// deadline but must NOT revert the node to Vulnerable — the in-flight
// migration still owns it. Tearing the migration down is a separate,
// explicit AbortMigration.
func TestSupersedeDuringMigration(t *testing.T) {
	c := New(3, 1)
	c.MarkVulnerable(1, 100)
	if err := c.MarkMigrating(1); err != nil {
		t.Fatal(err)
	}
	var fired []string
	c.SetObserver(func(id int, from, to State) {
		fired = append(fired, from.String()+"->"+to.String())
	})
	if err := c.MarkVulnerable(1, 80); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(1).State; got != Migrating {
		t.Fatalf("superseding prediction reverted state to %v, want migrating", got)
	}
	if got := c.Node(1).PredictedFailAt; got != 80 {
		t.Fatalf("PredictedFailAt = %g, want refreshed to 80", got)
	}
	if len(fired) != 0 {
		t.Fatalf("no-op re-mark notified the observer: %v", fired)
	}
	// The explicit abort realizes Migrating -> Vulnerable (and notifies).
	if err := c.AbortMigration(1, 75); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(1).State; got != Vulnerable {
		t.Fatalf("AbortMigration left state %v, want vulnerable", got)
	}
	if got := c.Node(1).PredictedFailAt; got != 75 {
		t.Fatalf("PredictedFailAt = %g, want 75", got)
	}
	if len(fired) != 1 || fired[0] != "migrating->vulnerable" {
		t.Fatalf("observer saw %v, want [migrating->vulnerable]", fired)
	}
}

func TestAbortMigrationRequiresMigrating(t *testing.T) {
	c := New(2, 1)
	if err := c.AbortMigration(0, 10); err == nil {
		t.Fatal("aborting a healthy node's migration accepted")
	}
	c.MarkVulnerable(0, 10)
	if err := c.AbortMigration(0, 10); err == nil {
		t.Fatal("aborting a vulnerable node's migration accepted")
	}
}

// TestObserverTable walks every legal transition path — including
// Replace, Fail, and the re-mark paths — and asserts the observer sees
// exactly the real transitions, with no notification for no-ops.
func TestObserverTable(t *testing.T) {
	type step struct {
		op   func(c *Cluster)
		want string // "" = no notification
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"predict-resolve", []step{
			{func(c *Cluster) { c.MarkVulnerable(0, 10) }, "healthy->vulnerable"},
			{func(c *Cluster) { c.MarkVulnerable(0, 8) }, ""}, // re-mark: no-op transition
			{func(c *Cluster) { c.MarkHealthy(0) }, "vulnerable->healthy"},
			{func(c *Cluster) { c.MarkHealthy(0) }, ""}, // already healthy
		}},
		{"migrate-complete", []step{
			{func(c *Cluster) { c.MarkVulnerable(0, 10) }, "healthy->vulnerable"},
			{func(c *Cluster) { c.MarkMigrating(0) }, "vulnerable->migrating"},
			{func(c *Cluster) { c.MarkVulnerable(0, 6) }, ""}, // supersede keeps migrating
			{func(c *Cluster) { c.MarkHealthy(0) }, "migrating->healthy"},
		}},
		{"migrate-abort", []step{
			{func(c *Cluster) { c.MarkVulnerable(0, 10) }, "healthy->vulnerable"},
			{func(c *Cluster) { c.MarkMigrating(0) }, "vulnerable->migrating"},
			{func(c *Cluster) { c.AbortMigration(0, 9) }, "migrating->vulnerable"},
		}},
		{"fail-replace", []step{
			{func(c *Cluster) { c.Fail(0) }, "healthy->failed"},
			{func(c *Cluster) { c.Fail(0) }, ""}, // double fail: no-op
			{func(c *Cluster) { c.Replace(0) }, "failed->healthy"},
		}},
		{"vulnerable-fail", []step{
			{func(c *Cluster) { c.MarkVulnerable(0, 10) }, "healthy->vulnerable"},
			{func(c *Cluster) { c.Fail(0) }, "vulnerable->failed"},
		}},
		{"migrating-fail", []step{
			{func(c *Cluster) { c.MarkVulnerable(0, 10) }, "healthy->vulnerable"},
			{func(c *Cluster) { c.MarkMigrating(0) }, "vulnerable->migrating"},
			{func(c *Cluster) { c.Fail(0) }, "migrating->failed"},
		}},
		{"failed-rejects-marks", []step{
			{func(c *Cluster) { c.Fail(0) }, "healthy->failed"},
			{func(c *Cluster) { c.MarkVulnerable(0, 10) }, ""}, // rejected, no notify
			{func(c *Cluster) { c.AbortMigration(0, 10) }, ""}, // rejected, no notify
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(2, 4)
			var got []string
			c.SetObserver(func(id int, from, to State) {
				if from == to {
					t.Errorf("observer notified of no-op %v->%v", from, to)
				}
				got = append(got, from.String()+"->"+to.String())
			})
			var want []string
			for _, s := range tc.steps {
				s.op(c)
				if s.want != "" {
					want = append(want, s.want)
				}
				if len(got) != len(want) || (len(want) > 0 && got[len(got)-1] != want[len(want)-1]) {
					t.Fatalf("after step: observer saw %v, want %v", got, want)
				}
			}
		})
	}
}

func TestAppendVulnerable(t *testing.T) {
	c := New(6, 1)
	c.MarkVulnerable(1, 10)
	c.MarkVulnerable(4, 20)
	c.MarkVulnerable(5, 30)
	c.MarkMigrating(4)
	buf := make([]int, 0, 8)
	buf = c.AppendVulnerable(buf)
	if len(buf) != 3 || buf[0] != 1 || buf[1] != 4 || buf[2] != 5 {
		t.Fatalf("AppendVulnerable = %v, want [1 4 5]", buf)
	}
	// Reusing the buffer must not allocate and must replace, not append.
	allocs := testing.AllocsPerRun(100, func() {
		buf = c.AppendVulnerable(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendVulnerable with warm buffer allocated %.1f times per run, want 0", allocs)
	}
	if got := c.Vulnerable(); len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("Vulnerable() = %v, want [1 4 5]", got)
	}
}

func TestStateString(t *testing.T) {
	names := map[State]string{Healthy: "healthy", Vulnerable: "vulnerable", Migrating: "migrating", Failed: "failed"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

// refNode and refCluster are an eager reference model of the cluster's
// checkpoint bookkeeping: every record writes every node it applies to,
// and every query walks every node. The differential tests run random
// operation sequences through both and compare after each step.
type refNode struct {
	state        State
	failAt       float64
	bb, pfs      float64
	replacements int
}

type refCluster struct {
	nodes        []refNode
	spares, used int
}

func newRef(n, spares int) *refCluster {
	r := &refCluster{nodes: make([]refNode, n), spares: spares}
	for i := range r.nodes {
		r.nodes[i].bb, r.nodes[i].pfs = -1, -1
	}
	return r
}

func (r *refCluster) markVulnerable(id int, failAt float64) bool {
	n := &r.nodes[id]
	if n.state == Failed {
		return false
	}
	if n.state != Migrating {
		n.state = Vulnerable
	}
	n.failAt = failAt
	return true
}

func (r *refCluster) markMigrating(id int) bool {
	n := &r.nodes[id]
	if n.state != Vulnerable {
		return false
	}
	n.state = Migrating
	return true
}

func (r *refCluster) abortMigration(id int, failAt float64) bool {
	n := &r.nodes[id]
	if n.state != Migrating {
		return false
	}
	n.state, n.failAt = Vulnerable, failAt
	return true
}

func (r *refCluster) markHealthy(id int) {
	r.nodes[id].state, r.nodes[id].failAt = Healthy, 0
}

func (r *refCluster) fail(id int) {
	n := &r.nodes[id]
	n.state, n.failAt, n.bb = Failed, 0, -1
}

func (r *refCluster) replace(id int) bool {
	n := &r.nodes[id]
	if n.state != Failed || r.spares-r.used <= 0 {
		return false
	}
	r.used++
	n.state, n.bb = Healthy, -1
	n.replacements++
	return true
}

func (r *refCluster) recordAll(pfs bool, p float64) {
	for i := range r.nodes {
		if r.nodes[i].state == Failed {
			continue
		}
		if pfs {
			r.nodes[i].pfs = p
		} else {
			r.nodes[i].bb = p
		}
	}
}

func (r *refCluster) clamp(p float64) {
	for i := range r.nodes {
		r.nodes[i].bb = min(r.nodes[i].bb, p)
		r.nodes[i].pfs = min(r.nodes[i].pfs, p)
	}
}

// recoverable is the literal O(n) definition.
func (r *refCluster) recoverable(failedID int) float64 {
	m := r.nodes[failedID].pfs
	for i, n := range r.nodes {
		if i != failedID {
			m = min(m, max(n.bb, n.pfs))
		}
	}
	return m
}

// recoverableAll returns recoverable(id) for every id in O(n), from the
// two smallest per-node restart points; the differential test checks it
// against recoverable on the small sizes.
func (r *refCluster) recoverableAll(out []float64) []float64 {
	lo, lo2, loID := math.Inf(1), math.Inf(1), -1
	for i, n := range r.nodes {
		p := max(n.bb, n.pfs)
		if p < lo {
			lo, lo2, loID = p, lo, i
		} else if p < lo2 {
			lo2 = p
		}
	}
	out = out[:0]
	for i, n := range r.nodes {
		others := lo
		if i == loID {
			others = lo2
		}
		out = append(out, min(n.pfs, others))
	}
	return out
}

// diffCheck compares every node of c against the reference, and
// RecoverableProgress for every id.
func diffCheck(t *testing.T, step string, c *Cluster, r *refCluster, buf []float64) []float64 {
	t.Helper()
	if c.Len() != len(r.nodes) || c.SparesLeft() != r.spares-r.used {
		t.Fatalf("%s: Len=%d SparesLeft=%d, want %d, %d", step, c.Len(), c.SparesLeft(), len(r.nodes), r.spares-r.used)
	}
	buf = r.recoverableAll(buf)
	for i, want := range r.nodes {
		n := c.Node(i)
		if n.ID != i || n.State != want.state || n.PredictedFailAt != want.failAt ||
			n.BBProgress != want.bb || n.PFSProgress != want.pfs || n.Replacements != want.replacements {
			t.Fatalf("%s: node %d = %+v, want %+v", step, i, *n, want)
		}
		if len(r.nodes) <= 8 && buf[i] != r.recoverable(i) {
			t.Fatalf("%s: reference recoverableAll(%d) = %g, recoverable = %g", step, i, buf[i], r.recoverable(i))
		}
		if got := c.RecoverableProgress(i); got != buf[i] {
			t.Fatalf("%s: RecoverableProgress(%d) = %g, want %g", step, i, got, buf[i])
		}
	}
	return buf
}

// runDiffOps applies ops random operations to c and r, checking after
// each. Node ids come mostly from a small hot set so operations on the
// same node interact; progress values come from a small range so ties
// and clamps matter.
func runDiffOps(t *testing.T, rnd *rand.Rand, c *Cluster, r *refCluster, ops int) {
	t.Helper()
	n := c.Len()
	var buf []float64
	id := func() int {
		if rnd.Intn(4) == 0 {
			return rnd.Intn(n)
		}
		return rnd.Intn(min(n, 6))
	}
	prog := func() float64 { return float64(rnd.Intn(12)) }
	for s := 0; s < ops; s++ {
		var step string
		switch op := rnd.Intn(12); op {
		case 0:
			i := id()
			step = fmt.Sprintf("Fail(%d)", i)
			c.Fail(i)
			r.fail(i)
		case 1:
			i := id()
			step = fmt.Sprintf("Replace(%d)", i)
			if got, want := c.Replace(i) == nil, r.replace(i); got != want {
				t.Fatalf("step %d %s: accepted=%v, reference %v", s, step, got, want)
			}
		case 2:
			i, p := id(), prog()
			step = fmt.Sprintf("RecordBBCheckpoint(%d, %g)", i, p)
			c.RecordBBCheckpoint(i, p)
			r.nodes[i].bb = p
		case 3:
			i, p := id(), prog()
			step = fmt.Sprintf("RecordPFSCheckpoint(%d, %g)", i, p)
			c.RecordPFSCheckpoint(i, p)
			r.nodes[i].pfs = p
		case 4, 5:
			p := prog()
			step = fmt.Sprintf("RecordBBCheckpointAll(%g)", p)
			c.RecordBBCheckpointAll(p)
			r.recordAll(false, p)
		case 6, 7:
			p := prog()
			step = fmt.Sprintf("RecordPFSCheckpointAll(%g)", p)
			c.RecordPFSCheckpointAll(p)
			r.recordAll(true, p)
		case 8:
			p := prog() - 1
			step = fmt.Sprintf("ClampCheckpoints(%g)", p)
			c.ClampCheckpoints(p)
			r.clamp(p)
		case 9:
			i, f := id(), prog()
			step = fmt.Sprintf("MarkVulnerable(%d, %g)", i, f)
			if got, want := c.MarkVulnerable(i, f) == nil, r.markVulnerable(i, f); got != want {
				t.Fatalf("step %d %s: accepted=%v, reference %v", s, step, got, want)
			}
		case 10:
			i := id()
			if rnd.Intn(2) == 0 {
				step = fmt.Sprintf("MarkMigrating(%d)", i)
				if got, want := c.MarkMigrating(i) == nil, r.markMigrating(i); got != want {
					t.Fatalf("step %d %s: accepted=%v, reference %v", s, step, got, want)
				}
			} else {
				f := prog()
				step = fmt.Sprintf("AbortMigration(%d, %g)", i, f)
				if got, want := c.AbortMigration(i, f) == nil, r.abortMigration(i, f); got != want {
					t.Fatalf("step %d %s: accepted=%v, reference %v", s, step, got, want)
				}
			}
		case 11:
			i := id()
			step = fmt.Sprintf("MarkHealthy(%d)", i)
			if r.nodes[i].state == Failed {
				continue // MarkHealthy panics on a failed node
			}
			c.MarkHealthy(i)
			r.markHealthy(i)
		}
		buf = diffCheck(t, fmt.Sprintf("step %d %s", s, step), c, r, buf)
	}
}

// TestDifferentialAgainstEager drives random operation sequences
// through the cluster and the eager reference model at 1, 8 and 2,272
// nodes.
func TestDifferentialAgainstEager(t *testing.T) {
	for _, size := range []int{1, 8, 2272} {
		t.Run(fmt.Sprintf("nodes=%d", size), func(t *testing.T) {
			seqs, ops := 60, 200
			if size > 8 {
				seqs, ops = 4, 150
			}
			for seed := 0; seed < seqs; seed++ {
				rnd := rand.New(rand.NewSource(int64(seed)))
				spares := rnd.Intn(6)
				c, r := New(size, spares), newRef(size, spares)
				runDiffOps(t, rnd, c, r, ops)
				c.Release()
			}
		})
	}
}

// TestReleaseThenNewIsPristine reuses a released cluster at a different
// size: the result must be indistinguishable from a fresh cluster, and
// must then behave like one under random operations.
func TestReleaseThenNewIsPristine(t *testing.T) {
	for _, sizes := range [][2]int{{8, 5}, {5, 8}, {2272, 8}, {8, 2272}} {
		t.Run(fmt.Sprintf("%d->%d", sizes[0], sizes[1]), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(sizes[0]*10000 + sizes[1])))
			c := New(sizes[0], 4)
			c.SetObserver(func(int, State, State) {})
			runDiffOps(t, rnd, c, newRef(sizes[0], 4), 80)
			c.Release()
			// The pool may hand back this cluster or another; either way
			// the result must be pristine.
			c = New(sizes[1], 2)
			if c.observer != nil {
				t.Fatal("reused cluster kept its observer")
			}
			r := newRef(sizes[1], 2)
			diffCheck(t, "after New", c, r, nil)
			runDiffOps(t, rnd, c, r, 80)
			c.Release()
		})
	}
}

func TestReleaseTwicePanics(t *testing.T) {
	c := New(2, 0)
	c.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Release()
}

// TestNodeSize pins the node layout: the generation stamp lives in the
// padding after State, so per-node state stays 48 bytes.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 48 {
		t.Fatalf("sizeof(Node) = %d, want 48", got)
	}
}

// recordAllLoop alternates the two app-wide records, the way a run
// stages and drains each coordinated checkpoint.
func recordAllLoop(b *testing.B, n int) {
	c := New(n, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			c.RecordBBCheckpointAll(float64(i))
		} else {
			c.RecordPFSCheckpointAll(float64(i))
		}
	}
	b.StopTimer()
	c.Release()
}

// TestRecordAllIndependentOfNodeCount gates the O(1) app-wide record:
// the per-call cost at 2,272 nodes (CHIMERA) must stay within 3x of the
// cost at 64 nodes, measured in this binary. An O(nodes) loop measures
// about 40x. Each size keeps its best of up to three measurements, so a
// burst of host noise cannot fail the gate on its own.
func TestRecordAllIndependentOfNodeCount(t *testing.T) {
	best := func(prev float64, n int) float64 {
		r := testing.Benchmark(func(b *testing.B) { recordAllLoop(b, n) })
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if prev > 0 {
			return min(prev, ns)
		}
		return ns
	}
	var small, large, ratio float64
	for attempt := 0; attempt < 3; attempt++ {
		small, large = best(small, 64), best(large, 2272)
		if ratio = large / small; ratio <= 3 {
			return
		}
	}
	t.Fatalf("Record*All costs %.1f ns at 2272 nodes vs %.1f ns at 64: ratio %.1f, want <= 3", large, small, ratio)
}

func BenchmarkRecordAll(b *testing.B) {
	for _, n := range []int{64, 505, 2272} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			recordAllLoop(b, n)
		})
	}
}

// BenchmarkClusterLifecycle times one run's worth of cluster use: New,
// a few coordinated checkpoints, one failure with its restart point and
// replacement, and Release.
func BenchmarkClusterLifecycle(b *testing.B) {
	for _, n := range []int{64, 505, 2272} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := New(n, 4)
				for k := 0; k < 4; k++ {
					c.RecordBBCheckpointAll(float64(k))
					c.RecordPFSCheckpointAll(float64(k))
				}
				c.Fail(n / 2)
				if c.RecoverableProgress(n/2) != 3 {
					b.Fatal("wrong restart point")
				}
				if err := c.Replace(n / 2); err != nil {
					b.Fatal(err)
				}
				c.Release()
			}
		})
	}
}
