// Package crmodel implements the five Checkpoint/Restart models the paper
// evaluates, at application granularity (one simulated process per
// application, the granularity of the paper's SimPy study):
//
//	B  — periodic BB checkpointing with asynchronous PFS drain, no
//	     failure prediction (the base model all reductions are
//	     measured against);
//	M1 — B + failure prediction + safeguard checkpointing (Bouguerra et
//	     al.): on prediction, all nodes synchronously checkpoint to the
//	     PFS, hoping to finish before the failure;
//	M2 — B + failure prediction + live migration (Behera et al.): with
//	     lead ≥ θ the vulnerable process migrates to a spare and the
//	     failure is avoided entirely;
//	P1 — B + failure prediction + p-ckpt: the coordinated prioritized
//	     checkpoint protocol (this paper's contribution);
//	P2 — hybrid p-ckpt: LM preferred, p-ckpt fallback with LM abort
//	     (this paper's headline model).
//
// The model catalogue and per-model strategies live in internal/policy;
// the platform quantities in internal/platform. This package supplies the
// application-granularity execution of both: a simulation run executes
// the application's compute/checkpoint cycle on the discrete-event
// engine, injects the failure/prediction stream, and accounts overheads
// per the paper's definitions (checkpoint / recomputation / recovery).
// Every run is deterministic given its seed.
package crmodel

import (
	"fmt"

	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/trace"
)

// Model selects a C/R policy. It is the policy catalogue's ID type; the
// constants below are the catalogue entries under their historical names.
type Model = policy.ID

const (
	// ModelB is the base model: periodic checkpointing only.
	ModelB Model = policy.B
	// ModelM1 adds safeguard checkpointing on prediction.
	ModelM1 Model = policy.M1
	// ModelM2 adds live migration on prediction.
	ModelM2 Model = policy.M2
	// ModelP1 adds coordinated prioritized checkpointing (p-ckpt).
	ModelP1 Model = policy.P1
	// ModelP2 is the hybrid: LM preferred, p-ckpt fallback.
	ModelP2 Model = policy.P2
)

// Models lists all five in presentation order.
func Models() []Model { return policy.All() }

// ModelByName parses a model name ("B", "M1", ...).
func ModelByName(name string) (Model, error) { return policy.ByName(name) }

// Config parameterises one simulation: the model under test, the shared
// platform configuration, and this tier's observers.
type Config struct {
	// Model is the C/R policy to simulate.
	Model Model
	// Config is the tier-independent platform: application, failure
	// system, I/O pricing, migration model, predictor. Its fields are
	// promoted (cfg.App, cfg.System, ...).
	platform.Config
	// Trace, when non-nil, receives the run's timeline events (see
	// internal/trace). Leave nil for production sweeps: tracing a long
	// run records one event per checkpoint cycle.
	Trace trace.Recorder
	// Metrics, when non-nil, receives the run's simulation-time metrics
	// (see internal/metrics): checkpoint block times, episode latencies,
	// drain queue depth, effective PFS bandwidth, lead-time consumption.
	// Like Trace, nil costs nothing on the hot path. A Registry is
	// single-run state — never share one across concurrent Simulate
	// calls. Production metering runs on the step tier
	// (experiments.SimulateMeteredN), which records the same series;
	// this tier's metering is the reference it is tested against.
	Metrics *metrics.Registry
}

// withDefaults returns a copy with zero platform fields defaulted.
func (c Config) withDefaults() Config {
	c.Config = c.Config.WithDefaults()
	return c
}

// Validate reports a configuration error, or nil.
func (c Config) Validate() error {
	if !c.Model.Valid() {
		return fmt.Errorf("crmodel: invalid model %d", uint8(c.Model))
	}
	return c.Config.Validate()
}

// Sigma returns the σ of Eq. (2) for this configuration: the fraction of
// failures avoidable by LM given the (scaled) lead-time distribution and
// the predictor's *baseline* recall (see platform.Config.SigmaLM for why
// the baseline). Models without LM use σ = 0.
func (c Config) Sigma() float64 {
	if !c.Model.UsesLM() {
		return 0
	}
	return c.Config.SigmaLM()
}
