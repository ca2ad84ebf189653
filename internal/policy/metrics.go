package policy

import "pckpt/internal/metrics"

// RunMetrics is one application run's instrument handles, resolved once
// at run start. Every engine that executes the catalogue at application
// granularity records through this one set, so a series means the same
// thing whichever engine produced it. With metering off every handle is
// nil and every call is an allocation-free no-op (the same contract as
// trace.Recorder).
//
// Metric names are prefixed "sim.<model>." so aggregating across the
// five C/R models in one experiment keeps their distributions apart.
type RunMetrics struct {
	// BBWrite is the wall span the application is blocked per completed
	// periodic BB checkpoint (interleaved proactive handling included).
	BBWrite *metrics.Histogram
	// EpisodeDur / CommitLat cover p-ckpt episodes: total blocked span
	// per completed episode, and per-vulnerable-node commit latency from
	// episode start to the node's prioritized PFS commit; EpisodeWidth is
	// the vulnerable+migrating population each episode opens against.
	EpisodeDur   *metrics.Histogram
	CommitLat    *metrics.Histogram
	EpisodeWidth *metrics.Histogram
	// SafeguardDur is the blocked span per completed M1 safeguard.
	SafeguardDur *metrics.Histogram
	// RecoveryDur is the restart latency per failure (all retries until a
	// recovery completes); RecomputeLoss is the progress rolled back.
	RecoveryDur   *metrics.Histogram
	RecomputeLoss *metrics.Histogram
	// PFSGBs is the effective aggregate PFS bandwidth drawn per
	// collective transfer (phase-2 commits, safeguards, PFS recoveries).
	PFSGBs *metrics.Histogram
	// LeadConsumed / LeadMargin split each mitigated prediction's lead
	// time into the part spent reaching safety and the part left over.
	LeadConsumed *metrics.Histogram
	LeadMargin   *metrics.Histogram
	// DrainDepth tracks in-flight BB→PFS drains over sim time; VulnNodes
	// tracks the vulnerable+migrating population.
	DrainDepth *metrics.Gauge
	VulnNodes  *metrics.Gauge
	// BBAborted counts periodic checkpoints voided by failures;
	// EpisodesAbandoned counts p-ckpt episodes cut short the same way.
	BBAborted         *metrics.Counter
	EpisodesAbandoned *metrics.Counter
}

// NewRunMetrics resolves the handle set against r (all nil when r is nil).
func NewRunMetrics(r *metrics.Registry, m ID) RunMetrics {
	if r == nil {
		return RunMetrics{}
	}
	p := "sim." + m.String() + "."
	return RunMetrics{
		BBWrite:           r.Histogram(p + "bb_write_seconds"),
		EpisodeDur:        r.Histogram(p + "episode_seconds"),
		CommitLat:         r.Histogram(p + "episode_commit_latency_seconds"),
		EpisodeWidth:      r.Histogram(p + "episode_width_nodes"),
		SafeguardDur:      r.Histogram(p + "safeguard_seconds"),
		RecoveryDur:       r.Histogram(p + "recovery_seconds"),
		RecomputeLoss:     r.Histogram(p + "recompute_loss_seconds"),
		PFSGBs:            r.Histogram(p + "pfs_effective_gbps"),
		LeadConsumed:      r.Histogram(p + "lead_consumed_seconds"),
		LeadMargin:        r.Histogram(p + "lead_margin_seconds"),
		DrainDepth:        r.Gauge(p + "drain_queue_depth"),
		VulnNodes:         r.Gauge(p + "vulnerable_nodes"),
		BBAborted:         r.Counter(p + "bb_writes_aborted"),
		EpisodesAbandoned: r.Counter(p + "episodes_abandoned"),
	}
}
