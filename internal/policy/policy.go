// Package policy is the single source of truth for the paper's C/R model
// catalogue (B, M1, M2, P1, P2) and the proactive strategy each model
// applies. Both simulation tiers — the application-level model in
// internal/crmodel and the node-granular simulator in internal/nodesim —
// consume this package, so a model's identity, labels, capabilities, and
// prediction-time decisions exist exactly once.
//
// The package has four parts:
//
//   - ID: the catalogue (names, labels, capability predicates, parsing);
//   - Policy: the strategy interface with prediction/failure hooks, with
//     one implementation per model (For);
//   - State: the shared C/R lifecycle state machine (fail-epoch voiding,
//     drain generations, episodes, migrations, predictions) that the
//     tiers previously duplicated as ad-hoc counters (see state.go);
//   - RunMetrics: the "sim.<model>." metric handles the application-
//     granularity engines (crmodel, stepsim) both record through (see
//     metrics.go).
package policy

import "fmt"

// ID identifies a C/R model in the catalogue.
type ID uint8

const (
	// B is the base model: periodic BB checkpointing with asynchronous
	// PFS drain, no failure prediction.
	B ID = iota
	// M1 adds safeguard checkpointing on prediction (Bouguerra et al.).
	M1
	// M2 adds live migration on prediction (Behera et al.).
	M2
	// P1 adds coordinated prioritized checkpointing (p-ckpt).
	P1
	// P2 is the hybrid: LM preferred, p-ckpt fallback with LM abort.
	P2
)

// All lists the catalogue in the paper's presentation order.
func All() []ID { return []ID{B, M1, M2, P1, P2} }

// String implements fmt.Stringer with the paper's model names.
func (id ID) String() string {
	switch id {
	case B:
		return "B"
	case M1:
		return "M1"
	case M2:
		return "M2"
	case P1:
		return "P1"
	case P2:
		return "P2"
	default:
		return fmt.Sprintf("Model(%d)", uint8(id))
	}
}

// NodeLabel returns the label the node-granular tier uses for the models
// it implements ("base", "p-ckpt", "hybrid"), or "" for models outside
// that tier's subset. Metrics series and table rows of internal/nodesim
// key on these labels.
func (id ID) NodeLabel() string {
	switch id {
	case B:
		return "base"
	case P1:
		return "p-ckpt"
	case P2:
		return "hybrid"
	default:
		return ""
	}
}

// ByName parses a model name ("B", "M1", ...).
func ByName(name string) (ID, error) {
	for _, id := range All() {
		if id.String() == name {
			return id, nil
		}
	}
	return 0, fmt.Errorf("policy: unknown model %q", name)
}

// Valid reports whether id is in the catalogue.
func (id ID) Valid() bool { return id <= P2 }

// UsesPrediction reports whether the model reacts to predictions.
func (id ID) UsesPrediction() bool { return id != B }

// UsesLM reports whether the model can live-migrate.
func (id ID) UsesLM() bool { return id == M2 || id == P2 }

// UsesPckpt reports whether the model can run the p-ckpt protocol.
func (id ID) UsesPckpt() bool { return id == P1 || id == P2 }

// UsesSafeguard reports whether the model takes safeguard checkpoints.
func (id ID) UsesSafeguard() bool { return id == M1 }

// Action is a strategy's prediction-time decision. The tier executes it
// with its own machinery (blocking episode vs priority lane, cluster
// bookkeeping, tracing); the decision itself is tier-independent.
type Action uint8

const (
	// ActNone takes no proactive action (model B; M2 under-lead; any
	// pckpt model while its episode is abandoned mid-recovery).
	ActNone Action = iota
	// ActMigrate starts a background live migration of the vulnerable
	// node (lead ≥ θ guarantees completion unless p-ckpt aborts it).
	ActMigrate
	// ActStartEpisode begins a p-ckpt episode with this prediction as the
	// first vulnerable node.
	ActStartEpisode
	// ActJoinEpisode adds the vulnerable node to the episode already in
	// progress (phase-1 priority queue / lane).
	ActJoinEpisode
	// ActSafeguard runs M1's all-node synchronous PFS checkpoint.
	ActSafeguard
)

// Policy is one C/R model's strategy: the prediction hook decides the
// proactive reaction against the shared lifecycle state, and the failure
// hook applies the (model-independent) failure transition. Obtain
// implementations with For.
type Policy interface {
	// ID returns the catalogue identity.
	ID() ID
	// OnPrediction decides the reaction to a prediction for node with the
	// given lead time, given the LM threshold theta.
	OnPrediction(s *State, node int, lead, theta float64) Action
	// OnFailure applies the shared failure transition (void in-flight
	// activities, abandon the episode, take the mitigation) and reports
	// what happened for the tier's accounting.
	OnFailure(s *State, ev Event) FailureOutcome
}

// common supplies the catalogue identity and the shared failure hook.
type common struct{ id ID }

func (c common) ID() ID                                      { return c.id }
func (c common) OnFailure(s *State, ev Event) FailureOutcome { return s.FailureStruck(ev) }

// baseline is model B: no proactive action, ever.
type baseline struct{ common }

func (baseline) OnPrediction(*State, int, float64, float64) Action { return ActNone }

// safeguard is model M1: every prediction triggers the all-node
// synchronous PFS checkpoint (the tier coalesces overlapping ones).
type safeguard struct{ common }

func (safeguard) OnPrediction(*State, int, float64, float64) Action { return ActSafeguard }

// migrate is model M2: live-migrate when the lead time covers θ and the
// node is not already migrating; otherwise the failure will strike.
type migrate struct{ common }

func (migrate) OnPrediction(s *State, node int, lead, theta float64) Action {
	if lead >= theta && !s.Migrating(node) {
		return ActMigrate
	}
	return ActNone
}

// pckpt is models P1 and P2: join a live episode when one is accepting
// work, otherwise (for the hybrid) prefer live migration when the lead
// covers θ, otherwise start an episode. Abandoned episodes accept no
// work — the prediction goes unserved, as on a real system mid-recovery.
type pckpt struct {
	common
	hybrid bool
}

func (p pckpt) OnPrediction(s *State, node int, lead, theta float64) Action {
	if ep := s.Episode(); ep != nil {
		if ep.Abandoned {
			return ActNone
		}
		return ActJoinEpisode
	}
	if p.hybrid && lead >= theta && !s.Migrating(node) {
		return ActMigrate
	}
	return ActStartEpisode
}

// For returns the strategy implementation for a catalogue ID. It panics
// on an ID outside the catalogue (configs are validated before use).
func For(id ID) Policy {
	switch id {
	case B:
		return baseline{common{B}}
	case M1:
		return safeguard{common{M1}}
	case M2:
		return migrate{common{M2}}
	case P1:
		return pckpt{common{P1}, false}
	case P2:
		return pckpt{common{P2}, true}
	default:
		panic(fmt.Sprintf("policy: no strategy for %v", id))
	}
}
