// Package cluster tracks the simulated machine: the job's compute nodes
// with their health state and the checkpoint data resident on each
// node-local burst buffer and on the PFS, plus the reserved spare-node
// pool the resource manager draws replacements from (the paper assumes
// the recovery rate of failed nodes keeps spares available; the pool
// makes that assumption checkable).
//
// Checkpoint bookkeeping is O(1) per coordinated checkpoint. All nodes
// save state together, so the cluster keeps one app-wide (progress,
// generation) pair per tier — burst buffer and PFS — and per-node
// values only for the nodes that diverge from it: failed and replaced
// nodes, and nodes that committed or staged a checkpoint of their own
// (p-ckpt's phase-1 vulnerable-node commits). A node follows the
// app-wide value of a tier unless its stamp is at least that tier's
// generation, or it is Failed. RecordBBCheckpointAll and
// RecordPFSCheckpointAll bump a generation; RecoverableProgress and
// ClampCheckpoints walk only the short list of diverging nodes.
//
// Per-run state is pooled: Release hands a cluster's node array back
// to New, which resets and reuses it.
package cluster

import (
	"fmt"
	"math"
	"sync"
)

// State is a node's health state, following the paper's Fig. 5.
type State uint8

const (
	// Healthy: normal computation and periodic checkpointing.
	Healthy State = iota
	// Vulnerable: a failure has been predicted for this node.
	Vulnerable
	// Migrating: the node's process is being live-migrated away.
	Migrating
	// Failed: the node failed and awaits replacement.
	Failed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Vulnerable:
		return "vulnerable"
	case Migrating:
		return "migrating"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Node is one job node's bookkeeping. State, PredictedFailAt and
// Replacements are always current. ID, BBProgress and PFSProgress are
// filled in by Cluster.Node: the progress fields of a returned *Node are
// a snapshot, valid until the next Record*CheckpointAll,
// ClampCheckpoints or Release. Change them through the Record* methods,
// not through the pointer.
type Node struct {
	// ID is the job-local node index.
	ID int
	// State is the current health state.
	State State
	// listed marks the node's entry in the cluster's diverging list.
	listed bool
	// stamp is the cluster's record counter at the node's newest
	// per-node record. The node owns a tier's progress field while stamp
	// is at least that tier's generation; otherwise the app-wide value
	// applies. (Packed next to State so a Node stays 48 bytes.)
	stamp uint32
	// PredictedFailAt is the predicted failure time while Vulnerable or
	// Migrating; zero otherwise.
	PredictedFailAt float64
	// BBProgress is the application progress (simulated seconds of
	// computation) captured by the newest checkpoint on this node's
	// burst buffer; negative means none.
	BBProgress float64
	// PFSProgress is the progress captured by this node's newest
	// checkpoint committed to the PFS; negative means none.
	PFSProgress float64
	// Replacements counts how many times this logical rank has been
	// re-hosted on a spare after failures.
	Replacements int
}

// Observer receives node state transitions as they happen, letting a
// metrics layer track populations (vulnerable nodes, failed nodes) over
// simulation time without the cluster knowing about clocks or metric
// names. A nil observer costs one predictable branch per transition.
type Observer func(id int, from, to State)

// Cluster is the job's node set plus the spare pool.
type Cluster struct {
	nodes    []Node
	spares   int
	used     int
	observer Observer

	// gen counts app-wide records; per-node records stamp its value.
	// It starts at 1 so a zeroed node (stamp 0) follows both tiers.
	gen uint32
	// bb and pfs are the app-wide checkpoints of each tier, written at
	// record counter values bbGen and pfsGen.
	bb, pfs       float64
	bbGen, pfsGen uint32
	// diverging lists, each once, the nodes that may own a progress
	// field or are Failed; every other node holds the app-wide values.
	diverging []int
	released  bool
}

// pool holds released clusters for New to reuse.
var pool sync.Pool

// SetObserver installs the state-transition observer (nil to remove).
func (c *Cluster) SetObserver(o Observer) { c.observer = o }

// setState applies a transition and notifies the observer on change.
func (c *Cluster) setState(id int, n *Node, to State) {
	from := n.State
	n.State = to
	if c.observer != nil && from != to {
		c.observer(id, from, to)
	}
}

// New builds a cluster of n job nodes backed by spares reserve nodes,
// reusing a released cluster's node array when one is large enough.
func New(n, spares int) *Cluster {
	if n <= 0 {
		panic("cluster: non-positive node count")
	}
	if spares < 0 {
		panic("cluster: negative spare count")
	}
	c, _ := pool.Get().(*Cluster)
	if c == nil {
		c = new(Cluster)
	}
	nodes := c.nodes
	if cap(nodes) >= n {
		nodes = nodes[:n]
		clear(nodes)
	} else {
		nodes = make([]Node, n)
	}
	*c = Cluster{
		nodes:     nodes,
		spares:    spares,
		gen:       1,
		bb:        -1,
		pfs:       -1,
		bbGen:     1,
		pfsGen:    1,
		diverging: c.diverging[:0],
	}
	return c
}

// Release returns the cluster to the pool New draws from and drops its
// observer. The cluster must not be used afterwards: call it only once
// nothing can touch the cluster again — for a simulation, after its
// engine has drained, since pending callbacks outlive the run's end.
// Releasing a cluster twice panics.
func (c *Cluster) Release() {
	if c.released {
		panic("cluster: cluster released twice")
	}
	c.released = true
	c.observer = nil
	pool.Put(c)
}

// Len returns the job's node count.
func (c *Cluster) Len() int { return len(c.nodes) }

// node returns node id's storage without refreshing its lazy fields.
func (c *Cluster) node(id int) *Node {
	if id < 0 || id >= len(c.nodes) {
		panic(fmt.Sprintf("cluster: node %d out of range [0, %d)", id, len(c.nodes)))
	}
	return &c.nodes[id]
}

// Node returns a pointer to node id with its ID and progress fields
// brought up to date. State changes go through the Mark*/Fail/Replace
// methods; the progress fields are a snapshot (see Node).
func (c *Cluster) Node(id int) *Node {
	n := c.node(id)
	n.ID = id
	n.BBProgress, n.PFSProgress = c.bbOf(n), c.pfsOf(n)
	return n
}

// bbOf returns n's current burst-buffer progress: its own field while
// it is Failed or holds a record at least as new as the app-wide one.
func (c *Cluster) bbOf(n *Node) float64 {
	if n.State == Failed || n.stamp >= c.bbGen {
		return n.BBProgress
	}
	return c.bb
}

// pfsOf is bbOf for the PFS tier.
func (c *Cluster) pfsOf(n *Node) float64 {
	if n.State == Failed || n.stamp >= c.pfsGen {
		return n.PFSProgress
	}
	return c.pfs
}

// pin gives node id its own copy of both tiers' current progress,
// stamped at the current generation, and lists it as diverging — the
// step before any per-node record.
func (c *Cluster) pin(id int, n *Node) {
	n.BBProgress, n.PFSProgress = c.bbOf(n), c.pfsOf(n)
	n.stamp = c.gen
	if !n.listed {
		n.listed = true
		c.diverging = append(c.diverging, id)
	}
}

// prune drops from the diverging list every node that holds neither
// tier's field any more (a newer app-wide record covers both) and is
// not Failed: it follows the app-wide values again.
func (c *Cluster) prune() {
	kept := c.diverging[:0]
	for _, id := range c.diverging {
		n := &c.nodes[id]
		if n.State == Failed || n.stamp >= c.bbGen || n.stamp >= c.pfsGen {
			kept = append(kept, id)
		} else {
			n.listed = false
		}
	}
	c.diverging = kept
}

// SparesLeft returns how many reserve nodes remain.
func (c *Cluster) SparesLeft() int { return c.spares - c.used }

// MarkVulnerable transitions a node to Vulnerable with the given
// predicted failure time. A vulnerable or migrating node may be re-marked
// (a newer prediction supersedes); a failed node may not. A migrating
// node keeps its Migrating state — the in-flight migration still owns the
// node, only the deadline is refreshed — so no observer notification
// fires for it. Use AbortMigration to tear the migration down first when
// the superseding prediction should re-queue the node.
func (c *Cluster) MarkVulnerable(id int, failAt float64) error {
	n := c.node(id)
	if n.State == Failed {
		return fmt.Errorf("cluster: node %d is failed, cannot mark vulnerable", id)
	}
	if n.State != Migrating {
		c.setState(id, n, Vulnerable)
	}
	n.PredictedFailAt = failAt
	return nil
}

// MarkMigrating transitions a vulnerable node to Migrating.
func (c *Cluster) MarkMigrating(id int) error {
	n := c.node(id)
	if n.State != Vulnerable {
		return fmt.Errorf("cluster: node %d is %v, cannot start migration", id, n.State)
	}
	c.setState(id, n, Migrating)
	return nil
}

// AbortMigration tears down an in-flight migration: the node returns to
// Vulnerable with the given predicted failure time (the superseding
// prediction's deadline), ready to be re-queued by the episode drain.
func (c *Cluster) AbortMigration(id int, failAt float64) error {
	n := c.node(id)
	if n.State != Migrating {
		return fmt.Errorf("cluster: node %d is %v, no migration to abort", id, n.State)
	}
	c.setState(id, n, Vulnerable)
	n.PredictedFailAt = failAt
	return nil
}

// MarkHealthy returns a node to Healthy (prediction resolved: the failure
// was avoided, mitigated, or turned out spurious).
func (c *Cluster) MarkHealthy(id int) {
	n := c.node(id)
	if n.State == Failed {
		panic(fmt.Sprintf("cluster: node %d is failed; use Replace", id))
	}
	c.setState(id, n, Healthy)
	n.PredictedFailAt = 0
}

// Fail records a node failure. The node keeps its Failed state until
// Replace is called, and app-wide records skip it meanwhile.
func (c *Cluster) Fail(id int) {
	n := c.node(id)
	c.pin(id, n)
	c.setState(id, n, Failed)
	n.PredictedFailAt = 0
	// The node's burst buffer dies with it: its staged checkpoint is
	// gone. The PFS copy survives.
	n.BBProgress = -1
}

// Replace swaps a failed node for a spare: the logical rank becomes a
// fresh healthy node with an empty burst buffer. It reports an error when
// the spare pool is exhausted. The node is re-stamped, so the app-wide
// records it missed while failed never apply to it.
func (c *Cluster) Replace(id int) error {
	n := c.node(id)
	if n.State != Failed {
		return fmt.Errorf("cluster: node %d is %v, not failed", id, n.State)
	}
	if c.SparesLeft() <= 0 {
		return fmt.Errorf("cluster: spare pool exhausted replacing node %d", id)
	}
	c.used++
	c.pin(id, n)
	c.setState(id, n, Healthy)
	n.Replacements++
	n.BBProgress = -1
	return nil
}

// RecordBBCheckpoint notes that node id staged a checkpoint capturing the
// given application progress on its burst buffer.
func (c *Cluster) RecordBBCheckpoint(id int, progress float64) {
	n := c.node(id)
	c.pin(id, n)
	n.BBProgress = progress
}

// RecordPFSCheckpoint notes that node id committed a checkpoint capturing
// the given progress to the PFS.
func (c *Cluster) RecordPFSCheckpoint(id int, progress float64) {
	n := c.node(id)
	c.pin(id, n)
	n.PFSProgress = progress
}

// RecordBBCheckpointAll stages a checkpoint on every non-failed node.
// O(1): it starts a new burst-buffer generation.
func (c *Cluster) RecordBBCheckpointAll(progress float64) {
	c.nextGen()
	c.bb, c.bbGen = progress, c.gen
}

// RecordPFSCheckpointAll commits a checkpoint for every non-failed node.
// O(1): it starts a new PFS generation.
func (c *Cluster) RecordPFSCheckpointAll(progress float64) {
	c.nextGen()
	c.pfs, c.pfsGen = progress, c.gen
}

// nextGen advances the record counter. A run records a few thousand
// app-wide checkpoints, so exhausting the 32-bit counter is a bug.
func (c *Cluster) nextGen() {
	if c.gen == math.MaxUint32 {
		panic("cluster: app-wide record counter exhausted")
	}
	c.gen++
}

// ClampCheckpoints discards every checkpoint record newer than progress,
// on every node. A degraded-platform restart that found the newer
// generations corrupt calls this so no later recovery tries them again.
func (c *Cluster) ClampCheckpoints(progress float64) {
	if c.bb > progress {
		c.bb = progress
	}
	if c.pfs > progress {
		c.pfs = progress
	}
	c.prune()
	for _, id := range c.diverging {
		n := &c.nodes[id]
		if n.BBProgress > progress {
			n.BBProgress = progress
		}
		if n.PFSProgress > progress {
			n.PFSProgress = progress
		}
	}
}

// Vulnerable returns the IDs of nodes currently Vulnerable or Migrating,
// ascending. It allocates a fresh slice; hot paths that run once per
// episode should prefer AppendVulnerable with a reused buffer.
func (c *Cluster) Vulnerable() []int {
	return c.AppendVulnerable(nil)
}

// AppendVulnerable appends the IDs of nodes currently Vulnerable or
// Migrating, ascending, to buf and returns the extended slice. Callers
// that keep buf across calls (`buf = c.AppendVulnerable(buf[:0])`) pay
// zero allocations once the buffer has grown to the episode's width.
func (c *Cluster) AppendVulnerable(buf []int) []int {
	for i := range c.nodes {
		if s := c.nodes[i].State; s == Vulnerable || s == Migrating {
			buf = append(buf, i)
		}
	}
	return buf
}

// CountState returns how many nodes are in the given state.
func (c *Cluster) CountState(s State) int {
	count := 0
	for i := range c.nodes {
		if c.nodes[i].State == s {
			count++
		}
	}
	return count
}

// RecoverableProgress returns the newest application progress the whole
// job can restart from after an unhandled failure of node failedID: every
// healthy node restores from its burst buffer, the replacement restores
// from the PFS, so recovery is bounded by the failed node's PFS copy and
// the healthy nodes' BB copies. A negative result means no consistent
// restart point exists (restart from the beginning).
//
// The paper's checkpoint model keeps all nodes' checkpoints aligned (all
// nodes save state together), so in practice the minimum is the last
// completed coordinated checkpoint that also finished draining for the
// failed node. Only the diverging nodes are visited; the rest hold the
// app-wide values and enter the minimum once.
func (c *Cluster) RecoverableProgress(failedID int) float64 {
	min := c.pfsOf(c.node(failedID))
	c.prune()
	// others counts the nodes besides failedID not on the list.
	others := len(c.nodes) - 1
	for _, id := range c.diverging {
		if id == failedID {
			continue
		}
		others--
		n := &c.nodes[id]
		p := c.bbOf(n)
		if q := c.pfsOf(n); q > p {
			p = q
		}
		if p < min {
			min = p
		}
	}
	if others > 0 {
		p := c.bb
		if c.pfs > p {
			p = c.pfs
		}
		if p < min {
			min = p
		}
	}
	return min
}
