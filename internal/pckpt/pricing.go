package pckpt

import "pckpt/internal/iomodel"

// EpisodePricing is the one place the p-ckpt episode's two transfer
// prices are derived, shared by every implementation of the protocol —
// the process-per-node episode in this package, the app tier's closed
// form (internal/crmodel), and the step tier's continuation chain
// (internal/stepsim). Centralising the
// derivation keeps the float operations identical across tiers, which
// the bit-identity cross-validation depends on: a tier that priced
// phase 2 with its own arithmetic could agree statistically yet diverge
// in the last bit.
type EpisodePricing struct {
	// VulnerableWrite is the phase-1 prioritized commit: one node's
	// uncontended PFS write of its footprint (the lead-time queue serves
	// these serially).
	VulnerableWrite float64

	io        *iomodel.Model
	perNodeGB float64
}

// NewEpisodePricing derives the episode prices for one platform: io is
// the priced I/O model, perNodeGB each node's checkpoint footprint.
func NewEpisodePricing(io *iomodel.Model, perNodeGB float64) EpisodePricing {
	return EpisodePricing{
		VulnerableWrite: io.SingleNodePFSWriteTime(perNodeGB),
		io:              io,
		perNodeGB:       perNodeGB,
	}
}

// Phase2Transfer prices the post-broadcast collective write: healthy
// nodes checkpoint together at contended aggregate bandwidth.
func (p EpisodePricing) Phase2Transfer(healthy int) iomodel.Transfer {
	return p.io.PFSWriteTransfer(healthy, p.perNodeGB)
}
