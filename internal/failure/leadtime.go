package failure

import (
	"fmt"
	"math"
	"sync"

	"pckpt/internal/rng"
)

// Sequence is one mined failure chain: a recurring sequence of log
// phrases that precedes a failure. Weight is the number of occurrences
// observed in the logs; the lead time (first phrase → failure) follows a
// log-normal with the given mean and coefficient of variation.
type Sequence struct {
	// ID is the 1-based failure sequence number of the paper's Fig. 2a.
	ID int
	// Weight is the occurrence count in the mined logs.
	Weight float64
	// MeanLeadSec is the mean lead time in seconds.
	MeanLeadSec float64
	// CV is the coefficient of variation (stddev/mean) of the lead time;
	// sequences 3 and 4 are heavy-tailed (the outliers the paper notes).
	CV float64
}

// LeadTimeModel is the ten-sequence lead-time mixture of Fig. 2a. Lead
// times drawn from it drive every prediction in the simulation.
//
// The published figure reports per-sequence boxplots without a numeric
// table, so the constants in DefaultLeadTimes are synthesized to
// reproduce the paper's *measurable consequences* — the FT-ratio
// structure of its Tables II and IV:
//
//   - P(lead ≥ θ_LM^CHIMERA ≈ 41 s) ≈ 0.54 (M2 FT 0.47 at recall 0.875)
//     yet P(lead ≥ 45.6 s) ≈ 0.05 (M2 FT collapses to 0.04 at −10 %
//     lead variation), which pins roughly half the probability mass
//     into a narrow band just above 41 s;
//   - P(lead ≥ t_safeguard^XGC ≈ 62 s) ≈ 0.045 (M1 FT 0.04);
//   - P(lead ≥ t_safeguard^CHIMERA ≈ 258 s) ≈ 0.005 (M1 FT 0.006);
//   - P(lead ≥ t_pckpt^CHIMERA ≈ 21 s) ≈ 0.82 (P1 FT 0.70);
//   - near-certain coverage of XGC's ≈7 s p-ckpt latency (P1 FT 0.84).
type LeadTimeModel struct {
	seqs    []Sequence
	mix     *rng.Mixture
	weights float64
}

// DefaultLeadTimes returns the lead-time model calibrated to the paper's
// FT-ratio structure (see the type comment). It is built once per process
// on first use and shared by every caller from then on: a LeadTimeModel
// is never mutated after construction (Sequences returns a copy, Scaled
// builds a new model), so concurrent runs may sample the same instance.
func DefaultLeadTimes() *LeadTimeModel { return defaultLeadTimes() }

var defaultLeadTimes = sync.OnceValue(func() *LeadTimeModel {
	return NewLeadTimeModel([]Sequence{
		{ID: 1, Weight: 4900, MeanLeadSec: 43.3, CV: 0.026},
		{ID: 2, Weight: 1300, MeanLeadSec: 32, CV: 0.12},
		{ID: 3, Weight: 550, MeanLeadSec: 95, CV: 0.80},
		{ID: 4, Weight: 70, MeanLeadSec: 320, CV: 1.00},
		{ID: 5, Weight: 1100, MeanLeadSec: 25, CV: 0.05},
		{ID: 6, Weight: 450, MeanLeadSec: 22, CV: 0.05},
		{ID: 7, Weight: 1250, MeanLeadSec: 18.5, CV: 0.08},
		{ID: 8, Weight: 250, MeanLeadSec: 12, CV: 0.25},
		{ID: 9, Weight: 80, MeanLeadSec: 6, CV: 0.40},
		{ID: 10, Weight: 50, MeanLeadSec: 9, CV: 0.30},
	})
})

// NewLeadTimeModel builds a model from explicit sequences. It panics on
// invalid parameters (model construction is configuration-time).
func NewLeadTimeModel(seqs []Sequence) *LeadTimeModel {
	if len(seqs) == 0 {
		panic("failure: lead-time model with no sequences")
	}
	m := &LeadTimeModel{seqs: seqs}
	comps := make([]rng.MixtureComponent, len(seqs))
	for i, s := range seqs {
		if s.Weight <= 0 || s.MeanLeadSec <= 0 || s.CV <= 0 {
			panic(fmt.Sprintf("failure: sequence %d has non-positive parameters", s.ID))
		}
		comps[i] = rng.MixtureComponent{
			Weight: s.Weight,
			Dist:   rng.LogNormalFromMeanCV(s.MeanLeadSec, s.CV),
		}
		m.weights += s.Weight
	}
	m.mix = rng.NewMixture(comps...)
	return m
}

// Sequences returns a copy of the model's sequences.
func (m *LeadTimeModel) Sequences() []Sequence { return append([]Sequence(nil), m.seqs...) }

// Sample draws a lead time in seconds and reports which failure sequence
// produced it (the sequence's ID).
func (m *LeadTimeModel) Sample(r *rng.Source) (lead float64, seqID int) {
	v, i := m.mix.SampleComponent(r)
	return v, m.seqs[i].ID
}

// Mean returns the weight-averaged mean lead time in seconds.
func (m *LeadTimeModel) Mean() float64 { return m.mix.Mean() }

// lognormalParams converts (mean, cv) to the underlying normal's (mu,
// sigma), mirroring rng.LogNormalFromMeanCV.
func lognormalParams(mean, cv float64) (mu, sigma float64) {
	sigma2 := math.Log(1 + cv*cv)
	return math.Log(mean) - sigma2/2, math.Sqrt(sigma2)
}

// TailProb returns P(lead ≥ x) analytically from the mixture of
// log-normal tails. The σ estimator of Eq. (2) and the analytical model
// of Eqs. (4)–(8) both consume this.
func (m *LeadTimeModel) TailProb(x float64) float64 {
	if x <= 0 {
		return 1
	}
	var p float64
	for _, s := range m.seqs {
		mu, sigma := lognormalParams(s.MeanLeadSec, s.CV)
		z := (math.Log(x) - mu) / sigma
		p += s.Weight * 0.5 * math.Erfc(z/math.Sqrt2)
	}
	return p / m.weights
}

// Quantile returns the lead time q such that P(lead ≤ q) = p, found by
// bisection on the analytic CDF. Used by display tools and tests.
func (m *LeadTimeModel) Quantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		p = 1 - 1e-12
	}
	lo, hi := 0.0, 1.0
	for m.TailProb(hi) > 1-p {
		hi *= 2
		if hi > 1e12 {
			break
		}
	}
	for i := 0; i < 200 && hi-lo > 1e-9*hi; i++ {
		mid := (lo + hi) / 2
		if 1-m.TailProb(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Scaled returns a copy of the model with every lead time multiplied by
// factor — the paper's lead-time variability axis (a +50 % variation is
// factor 1.5). Means and tail probabilities scale consistently.
func (m *LeadTimeModel) Scaled(factor float64) *LeadTimeModel {
	if factor <= 0 {
		panic("failure: lead-time scale factor must be positive")
	}
	seqs := make([]Sequence, len(m.seqs))
	copy(seqs, m.seqs)
	for i := range seqs {
		seqs[i].MeanLeadSec *= factor
	}
	return NewLeadTimeModel(seqs)
}

// Sigma returns σ of Eq. (2): the fraction of failures predictable with a
// lead time of at least theta seconds AND actually predicted (predictions
// miss with rate fnRate). Failures avoided by live migration reduce the
// effective failure rate by σ.
func (m *LeadTimeModel) Sigma(theta float64, fnRate float64) float64 {
	if fnRate < 0 || fnRate > 1 {
		panic("failure: fnRate outside [0, 1]")
	}
	return (1 - fnRate) * m.TailProb(theta)
}
