// Package iomodel implements the I/O performance model of Sec. IV of the
// paper: the bandwidth every checkpoint and recovery operation in the C/R
// models is priced against.
//
// The paper measured Summit's GPFS with two experiments — a single-node
// task-count sweep (its Fig. 2b, showing 8 MPI tasks per node maximise
// bandwidth) and a weak-scaling sweep producing a performance matrix of
// aggregate bandwidth over (node count × per-node transfer size) (its
// Fig. 2c). The simulation then *only* consults that matrix. We reproduce
// the same two-stage structure: a parametric surface calibrated to the
// numbers the paper reports stands in for the measurement campaign, a
// discrete matrix is sampled from it exactly as a measurement would be
// recorded, and all queries go through bilinear interpolation over the
// matrix in log2 space — the same code path a measured matrix would use.
//
// Units: sizes are GB (1e9 bytes), bandwidths GB/s, times seconds.
package iomodel

import (
	"fmt"
	"math"
	"sync"
)

// Config holds the platform constants. DefaultSummit returns the values
// from the paper (Summit compute node + GPFS + NVMe burst buffer).
type Config struct {
	// BBWriteGBs and BBReadGBs are the per-node burst-buffer bandwidths
	// (2.1 GB/s write, 5.5 GB/s read on Summit's 1.6 TB NVMe).
	BBWriteGBs float64
	BBReadGBs  float64
	// NodePFSPeakGBs is the maximum PFS bandwidth a single compute node
	// reaches with the optimal task count (~13.5 GB/s on Summit; the
	// paper quotes 13–13.5 GB/s single-node PFS write).
	NodePFSPeakGBs float64
	// AggregatePFSCeilingGBs is the file-system-wide bandwidth ceiling
	// (2.5 TB/s aggregate on Summit per the CORAL evaluation).
	AggregatePFSCeilingGBs float64
	// NetworkGBs is the inter-node link bandwidth used by live migration
	// (12.5 GB/s on Summit's fat-tree EDR infiniband).
	NetworkGBs float64
	// OptimalTasks is the per-node MPI task count at which single-node
	// PFS bandwidth peaks (8 on Summit).
	OptimalTasks int
	// MaxTasks is the number of physical cores per node (42 on Summit).
	MaxTasks int
	// HalfSaturationGB is the per-node transfer size at which bandwidth
	// reaches half of its asymptote; small transfers are latency-bound.
	HalfSaturationGB float64
	// DRAMSizeGB and BBSizeGB bound checkpoint and migration footprints
	// (512 GB DRAM, 1600 GB burst buffer per Summit node).
	DRAMSizeGB float64
	BBSizeGB   float64
	// DrainConcurrency limits how many nodes bleed checkpoints from BB to
	// PFS at once during the asynchronous drain (Sec. II).
	DrainConcurrency int
}

// DefaultSummit returns the Summit-calibrated configuration used by every
// experiment in the paper.
func DefaultSummit() Config {
	return Config{
		BBWriteGBs:             2.1,
		BBReadGBs:              5.5,
		NodePFSPeakGBs:         13.5,
		AggregatePFSCeilingGBs: 2500,
		NetworkGBs:             12.5,
		OptimalTasks:           8,
		MaxTasks:               42,
		HalfSaturationGB:       0.25,
		DRAMSizeGB:             512,
		BBSizeGB:               1600,
		// High enough that the asynchronous drain window stays small
		// relative to the OCI, matching the paper's observation that the
		// drain window is negligible on Summit's PFS.
		DrainConcurrency: 512,
	}
}

// Validate reports a configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.BBWriteGBs <= 0 || c.BBReadGBs <= 0:
		return fmt.Errorf("iomodel: burst buffer bandwidths must be positive")
	case c.NodePFSPeakGBs <= 0 || c.AggregatePFSCeilingGBs <= 0:
		return fmt.Errorf("iomodel: PFS bandwidths must be positive")
	case c.NetworkGBs <= 0:
		return fmt.Errorf("iomodel: network bandwidth must be positive")
	case c.OptimalTasks <= 0 || c.MaxTasks < c.OptimalTasks:
		return fmt.Errorf("iomodel: task counts invalid (optimal=%d, max=%d)", c.OptimalTasks, c.MaxTasks)
	case c.HalfSaturationGB <= 0:
		return fmt.Errorf("iomodel: half-saturation size must be positive")
	case c.DRAMSizeGB <= 0 || c.BBSizeGB <= 0:
		return fmt.Errorf("iomodel: memory sizes must be positive")
	case c.DrainConcurrency <= 0:
		return fmt.Errorf("iomodel: drain concurrency must be positive")
	}
	return nil
}

// Model prices I/O operations. Construct with New.
type Model struct {
	cfg Config
	mx  *Matrix
}

// New builds a Model: it samples the parametric surface into the discrete
// performance matrix and keeps the matrix for all queries. It panics on an
// invalid configuration (construction happens at program start; failing
// loudly there is the useful behaviour).
func New(cfg Config) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Model{cfg: cfg}
	m.mx = BuildMatrix(cfg)
	return m
}

// Default returns the Summit model (New(DefaultSummit())), built once per
// process on first use and shared by every caller from then on. A Model
// is never mutated after New returns — the matrix accessors hand out
// copies — so concurrent runs may price against the same instance.
func Default() *Model { return defaultModel() }

var defaultModel = sync.OnceValue(func() *Model { return New(DefaultSummit()) })

// Config returns the platform constants the model was built with.
func (m *Model) Config() Config { return m.cfg }

// Matrix returns the sampled performance matrix (for display tools).
func (m *Model) Matrix() *Matrix { return m.mx }

// sizeFactor models latency-bound small transfers: a saturating ramp that
// reaches 1 asymptotically, 0.5 at HalfSaturationGB.
func sizeFactor(cfg Config, perNodeGB float64) float64 {
	if perNodeGB <= 0 {
		return 0
	}
	return perNodeGB / (perNodeGB + cfg.HalfSaturationGB)
}

// taskFactor models the single-node task-count sweep of Fig. 2b: bandwidth
// climbs roughly linearly to the optimum (8 tasks), then degrades gently
// from file-system client contention toward the core count.
func taskFactor(cfg Config, tasks int) float64 {
	if tasks <= 0 {
		return 0
	}
	opt := float64(cfg.OptimalTasks)
	t := float64(tasks)
	if t <= opt {
		// Diminishing returns on the way up: each extra task adds a bit
		// less, reaching 1.0 exactly at the optimum.
		return math.Sqrt(t/opt)*0.55 + (t/opt)*0.45
	}
	// Past the optimum, contention sheds ~25% of peak by MaxTasks.
	over := (t - opt) / (float64(cfg.MaxTasks) - opt)
	if over > 1 {
		over = 1
	}
	return 1 - 0.25*over
}

// SingleNodeBandwidth returns the aggregate PFS bandwidth one node sees
// when writing transferGB with the given number of tasks (the Fig. 2b
// surface). The 8-task curve at large sizes hits NodePFSPeakGBs.
func (m *Model) SingleNodeBandwidth(tasks int, transferGB float64) float64 {
	return m.cfg.NodePFSPeakGBs * taskFactor(m.cfg, tasks) * sizeFactor(m.cfg, transferGB)
}

// surfaceAggregate is the parametric weak-scaling surface the matrix is
// sampled from: per-node bandwidth at the optimal task count, summed over
// nodes, saturating exponentially at the file-system ceiling.
func surfaceAggregate(cfg Config, nodes int, perNodeGB float64) float64 {
	if nodes <= 0 || perNodeGB <= 0 {
		return 0
	}
	perNode := cfg.NodePFSPeakGBs * sizeFactor(cfg, perNodeGB)
	offered := float64(nodes) * perNode
	c := cfg.AggregatePFSCeilingGBs
	return c * (1 - math.Exp(-offered/c))
}

// AggregateBandwidth returns the job-wide PFS bandwidth for nodes each
// transferring perNodeGB, interpolated from the performance matrix. This
// is the quantity the C/R models divide checkpoint volume by.
func (m *Model) AggregateBandwidth(nodes int, perNodeGB float64) float64 {
	return m.mx.Lookup(nodes, perNodeGB)
}

// PFSWriteTime returns the seconds for nodes to each write perNodeGB to
// the PFS concurrently (a proactive checkpoint or the phase-2 p-ckpt
// commit of the healthy nodes).
func (m *Model) PFSWriteTime(nodes int, perNodeGB float64) float64 {
	if perNodeGB <= 0 || nodes <= 0 {
		return 0
	}
	bw := m.AggregateBandwidth(nodes, perNodeGB)
	return float64(nodes) * perNodeGB / bw
}

// PFSReadTime returns the seconds for nodes to each read perNodeGB from
// the PFS. The paper assumes the same performance matrix for reads
// (writes are fsync-purged; see Sec. IV).
func (m *Model) PFSReadTime(nodes int, perNodeGB float64) float64 {
	return m.PFSWriteTime(nodes, perNodeGB)
}

// Transfer describes one priced collective PFS operation: the volume
// moved, the seconds it takes, and the effective aggregate bandwidth
// actually drawn — the quantity the metrics layer records per write to
// expose PFS contention over a run.
type Transfer struct {
	Nodes    int
	VolumeGB float64
	Seconds  float64
	// GBs is VolumeGB/Seconds: the effective aggregate bandwidth, which
	// sits below the matrix entry whenever the transfer is latency-bound.
	GBs float64
}

// PFSWriteTransfer prices a collective write of perNodeGB per node and
// returns the full transfer description. PFSWriteTime is this function's
// Seconds component.
func (m *Model) PFSWriteTransfer(nodes int, perNodeGB float64) Transfer {
	t := Transfer{Nodes: nodes, VolumeGB: float64(nodes) * perNodeGB}
	t.Seconds = m.PFSWriteTime(nodes, perNodeGB)
	if t.Seconds > 0 {
		t.GBs = t.VolumeGB / t.Seconds
	}
	return t
}

// SingleNodePFSWriteTime returns the seconds for ONE node to write
// perNodeGB to the PFS without contention — the prioritized, low-latency
// critical path a vulnerable node gets under p-ckpt.
func (m *Model) SingleNodePFSWriteTime(perNodeGB float64) float64 {
	if perNodeGB <= 0 {
		return 0
	}
	return perNodeGB / m.AggregateBandwidth(1, perNodeGB)
}

// SingleNodePFSReadTime returns the seconds for one replacement node to
// restore perNodeGB from the PFS during recovery.
func (m *Model) SingleNodePFSReadTime(perNodeGB float64) float64 {
	return m.SingleNodePFSWriteTime(perNodeGB)
}

// BBWriteTime returns the seconds to stage perNodeGB on the node-local
// burst buffer (the blocking part of a periodic checkpoint). Every node
// writes to its own device, so the time is independent of node count.
func (m *Model) BBWriteTime(perNodeGB float64) float64 {
	if perNodeGB <= 0 {
		return 0
	}
	return perNodeGB / m.cfg.BBWriteGBs
}

// BBReadTime returns the seconds to restore perNodeGB from the node-local
// burst buffer during recovery of healthy nodes.
func (m *Model) BBReadTime(perNodeGB float64) float64 {
	if perNodeGB <= 0 {
		return 0
	}
	return perNodeGB / m.cfg.BBReadGBs
}

// NetworkTransferTime returns the seconds to push totalGB over one
// inter-node link — the live-migration path.
func (m *Model) NetworkTransferTime(totalGB float64) float64 {
	if totalGB <= 0 {
		return 0
	}
	return totalGB / m.cfg.NetworkGBs
}

// DrainTime returns the seconds for the asynchronous BB→PFS bleed-off of
// a periodic checkpoint: nodes drain in waves of at most DrainConcurrency
// concurrent transferrers (Sec. II limits concurrent drainers to bound
// PFS contention).
func (m *Model) DrainTime(nodes int, perNodeGB float64) float64 {
	if perNodeGB <= 0 || nodes <= 0 {
		return 0
	}
	conc := m.cfg.DrainConcurrency
	waves := (nodes + conc - 1) / conc
	full := m.PFSWriteTime(conc, perNodeGB)
	t := float64(waves-1) * full
	rem := nodes - (waves-1)*conc
	t += m.PFSWriteTime(rem, perNodeGB)
	// The drain is also bounded by the BB read bandwidth on each node.
	perWaveBBRead := perNodeGB / m.cfg.BBReadGBs
	if minimum := float64(waves) * perWaveBBRead; t < minimum {
		t = minimum
	}
	return t
}
