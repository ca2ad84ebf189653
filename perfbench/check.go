package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"pckpt/internal/machine"
	"pckpt/internal/stats"
)

// identityTol is the relative tolerance of the accounting identity
// WallSeconds == ComputeSeconds + Overheads.Total(): float summation
// order may differ from the model's own, nothing more.
const identityTol = 1e-9

// runViolation returns the first accounting invariant r breaks, or "".
// computeSeconds is the configuration's failure-free compute time
// (platform.Derived.ComputeSeconds). A truncated run stopped short of
// its compute, so it must satisfy the inequality instead of the
// identity.
func runViolation(r stats.RunResult, computeSeconds float64) string {
	o := r.Overheads
	switch {
	case r.WallSeconds < 0 || o.Checkpoint < 0 || o.Recompute < 0 || o.Recovery < 0:
		return "negative time bucket"
	case r.Failures < 0 || r.Predicted < 0 || r.Mitigated < 0 || r.Avoided < 0 ||
		r.Checkpoints < 0 || r.ProactiveCkpts < 0 || r.Migrations < 0 || r.AbortedMigrations < 0:
		return "negative counter"
	case r.Mitigated+r.Avoided > r.TotalFailures():
		return "handled failures exceed failures"
	case math.IsNaN(r.WallSeconds) || math.IsInf(r.WallSeconds, 0):
		return "non-finite wall time"
	}
	progress := r.WallSeconds - o.Total()
	if r.Truncated {
		if progress > computeSeconds*(1+identityTol) {
			return "truncated run progressed past its compute"
		}
		return ""
	}
	if math.Abs(progress-computeSeconds) > identityTol*r.WallSeconds {
		return "wall != compute + overheads"
	}
	return ""
}

// peakAboveCeiling reports whether a shared-machine run allocated more
// PFS bandwidth than the machine's ceiling at some repricing.
func peakAboveCeiling(res machine.Result, ceilingGBs float64) bool {
	return res.PeakAllocGBs > ceilingGBs*(1+identityTol)
}

// digest is a SHA-256 over results in seed order. Each value is written
// with %+v, which prints floats in their shortest exact form, so two
// digests match exactly when every simulated statistic does.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(v any) { fmt.Fprintf(d.h, "%+v\n", v) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
