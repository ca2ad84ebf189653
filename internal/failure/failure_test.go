package failure

import (
	"math"
	"testing"
	"testing/quick"

	"pckpt/internal/rng"
)

func TestSystemsCatalogue(t *testing.T) {
	systems := Systems()
	if len(systems) != 3 {
		t.Fatalf("%d systems, want 3 (Table III)", len(systems))
	}
	for _, s := range systems {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestSystemByName(t *testing.T) {
	s, err := SystemByName("OLCF Titan")
	if err != nil || s.Shape != 0.6885 {
		t.Fatalf("SystemByName(Titan) = %+v, %v", s, err)
	}
	if _, err := SystemByName("nope"); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestTitanMeanInterarrival(t *testing.T) {
	// 5.4527 × Γ(1 + 1/0.6885) ≈ 7.0 hours system-wide MTBF.
	mean := Titan.MeanInterarrivalHours()
	if mean < 6.5 || mean > 7.5 {
		t.Fatalf("Titan mean inter-arrival %.2f h, want ≈7", mean)
	}
}

func TestJobScaleInverseInNodes(t *testing.T) {
	// Half the nodes → half the failure rate → double the scale.
	full := Titan.JobScaleSeconds(Titan.Nodes)
	half := Titan.JobScaleSeconds(Titan.Nodes / 2)
	if math.Abs(half-2*full)/full > 1e-9 {
		t.Fatalf("scale did not double: %.1f vs 2×%.1f", half, full)
	}
}

func TestJobFailureRateConsistency(t *testing.T) {
	// rate × mean-interarrival must be 1 for the whole system.
	rate := Titan.JobFailureRate(Titan.Nodes)
	mean := Titan.MeanInterarrivalHours() * 3600
	if prod := rate * mean; math.Abs(prod-1) > 1e-9 {
		t.Fatalf("rate × mean = %g, want 1", prod)
	}
	// Per-node rate times node count recovers the system rate.
	if got := Titan.PerNodeRate() * float64(Titan.Nodes); math.Abs(got-rate)/rate > 1e-9 {
		t.Fatalf("per-node rate inconsistent: %g vs %g", got, rate)
	}
}

func TestLeadTimeModelTailProbs(t *testing.T) {
	m := DefaultLeadTimes()
	// The calibration targets derived from the paper's Tables II and IV
	// (see the LeadTimeModel doc comment).
	checks := []struct {
		x      float64
		lo, hi float64
	}{
		{7.4, 0.95, 1.0},    // p-ckpt latency of XGC: nearly always covered
		{21, 0.72, 0.92},    // p-ckpt latency of CHIMERA
		{41, 0.45, 0.62},    // LM θ of CHIMERA
		{45.6, 0.02, 0.09},  // θ_CHIMERA at −10 % lead: the Table II cliff
		{62, 0.015, 0.08},   // safeguard latency of XGC
		{258, 0.001, 0.012}, // safeguard latency of CHIMERA
	}
	for _, c := range checks {
		p := m.TailProb(c.x)
		if p < c.lo || p > c.hi {
			t.Errorf("P(lead ≥ %.1f) = %.4f, want in [%.3f, %.3f]", c.x, p, c.lo, c.hi)
		}
	}
}

func TestTailProbMonotone(t *testing.T) {
	m := DefaultLeadTimes()
	prev := 1.0
	for x := 0.0; x < 1000; x += 5 {
		p := m.TailProb(x)
		if p > prev+1e-12 {
			t.Fatalf("tail probability increased at x=%g", x)
		}
		prev = p
	}
	if m.TailProb(0) != 1 {
		t.Fatal("P(lead ≥ 0) must be 1")
	}
}

func TestTailProbMatchesSampling(t *testing.T) {
	m := DefaultLeadTimes()
	r := rng.New(100)
	const n = 200000
	for _, x := range []float64{10, 30, 50, 100} {
		hits := 0
		for i := 0; i < n; i++ {
			lead, _ := m.Sample(r)
			if lead >= x {
				hits++
			}
		}
		emp := float64(hits) / n
		ana := m.TailProb(x)
		if math.Abs(emp-ana) > 0.01 {
			t.Errorf("x=%g: empirical %.4f vs analytic %.4f", x, emp, ana)
		}
	}
}

func TestQuantileInvertsTail(t *testing.T) {
	m := DefaultLeadTimes()
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
		q := m.Quantile(p)
		if got := 1 - m.TailProb(q); math.Abs(got-p) > 1e-6 {
			t.Errorf("CDF(Quantile(%g)) = %g", p, got)
		}
	}
	if m.Quantile(0) != 0 {
		t.Fatal("Quantile(0) must be 0")
	}
}

func TestScaledModel(t *testing.T) {
	m := DefaultLeadTimes()
	s := m.Scaled(1.5)
	if math.Abs(s.Mean()-1.5*m.Mean())/m.Mean() > 1e-9 {
		t.Fatalf("scaled mean %.3f, want %.3f", s.Mean(), 1.5*m.Mean())
	}
	// Tail at 1.5x must equal original tail at x.
	for _, x := range []float64{10, 40, 100} {
		if a, b := s.TailProb(1.5*x), m.TailProb(x); math.Abs(a-b) > 1e-9 {
			t.Errorf("scaled tail mismatch at x=%g: %g vs %g", x, a, b)
		}
	}
}

func TestSigma(t *testing.T) {
	m := DefaultLeadTimes()
	// σ with perfect recall equals the raw tail probability.
	if a, b := m.Sigma(41, 0), m.TailProb(41); a != b {
		t.Fatalf("Sigma(θ, 0) = %g, want %g", a, b)
	}
	// Recall scales σ linearly.
	if a, b := m.Sigma(41, 0.5), 0.5*m.TailProb(41); math.Abs(a-b) > 1e-12 {
		t.Fatalf("Sigma with FN=0.5 = %g, want %g", a, b)
	}
	// σ must stay below the paper's analytic bound region in practice.
	if s := m.Sigma(0, DefaultFNRate); s >= 1 {
		t.Fatalf("sigma at θ=0 is %g, want < 1", s)
	}
}

func TestStreamOrdering(t *testing.T) {
	s := NewStream(Config{System: Titan, JobNodes: 2272, FNRate: DefaultFNRate, FPRate: DefaultFPRate}, rng.New(7))
	prev := 0.0
	for i := 0; i < 5000; i++ {
		ev := s.Next()
		if ev.Time < prev {
			t.Fatalf("event %d out of order: %.2f after %.2f", i, ev.Time, prev)
		}
		prev = ev.Time
	}
}

func TestStreamPredictionPrecedesFailure(t *testing.T) {
	s := NewStream(Config{System: Titan, JobNodes: 1000, FNRate: 0.1, FPRate: 0.1}, rng.New(8))
	pred := map[int64]Event{}
	for i := 0; i < 5000; i++ {
		ev := s.Next()
		switch ev.Kind {
		case KindPrediction:
			if _, dup := pred[ev.ID]; dup {
				t.Fatalf("duplicate prediction for failure %d", ev.ID)
			}
			pred[ev.ID] = ev
			if ev.FailTime < ev.Time {
				t.Fatalf("prediction %d has FailTime %.2f before prediction time %.2f", ev.ID, ev.FailTime, ev.Time)
			}
			if math.Abs((ev.FailTime-ev.Time)-ev.Lead) > 1e-9 {
				t.Fatalf("prediction %d lead inconsistent", ev.ID)
			}
		case KindFailure:
			if p, ok := pred[ev.ID]; ok {
				if p.Node != ev.Node || p.FailTime != ev.Time {
					t.Fatalf("failure %d does not match its prediction", ev.ID)
				}
				delete(pred, ev.ID)
			} else if ev.Lead != 0 {
				t.Fatalf("failure %d carries lead %.2f but no prediction was seen", ev.ID, ev.Lead)
			}
		}
	}
}

func TestStreamRecall(t *testing.T) {
	const fn = 0.3
	s := NewStream(Config{System: Titan, JobNodes: 2272, FNRate: fn, FPRate: 0}, rng.New(9))
	predicted, total := 0, 0
	for total < 20000 {
		ev := s.Next()
		if ev.Kind == KindFailure {
			total++
			if ev.Lead > 0 {
				predicted++
			}
		}
	}
	got := float64(predicted) / float64(total)
	if math.Abs(got-(1-fn)) > 0.02 {
		t.Fatalf("recall %.3f, want ≈%.3f", got, 1-fn)
	}
}

func TestStreamFalsePositiveShare(t *testing.T) {
	s := NewStream(Config{System: Titan, JobNodes: 2272, FNRate: DefaultFNRate, FPRate: DefaultFPRate}, rng.New(10))
	spurious, preds := 0, 0
	for preds+spurious < 30000 {
		switch s.Next().Kind {
		case KindPrediction:
			preds++
		case KindSpurious:
			spurious++
		}
	}
	share := float64(spurious) / float64(spurious+preds)
	if math.Abs(share-DefaultFPRate) > 0.02 {
		t.Fatalf("false-positive share %.3f, want ≈%.2f", share, DefaultFPRate)
	}
}

func TestStreamMeanInterarrival(t *testing.T) {
	jobNodes := 2272
	s := NewStream(Config{System: Titan, JobNodes: jobNodes, FNRate: 0, FPRate: 0}, rng.New(11))
	const n = 30000
	var last float64
	count := 0
	for count < n {
		ev := s.Next()
		if ev.Kind == KindFailure {
			count++
			last = ev.Time
		}
	}
	want := 1 / Titan.JobFailureRate(jobNodes)
	got := last / float64(n)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("mean job inter-arrival %.0f s, want ≈%.0f s", got, want)
	}
}

func TestStreamNodesInRange(t *testing.T) {
	const nodes = 37
	s := NewStream(Config{System: LANLSystem18, JobNodes: nodes, FNRate: 0.2, FPRate: 0.2}, rng.New(12))
	for i := 0; i < 3000; i++ {
		ev := s.Next()
		if ev.Node < 0 || ev.Node >= nodes {
			t.Fatalf("event node %d outside [0, %d)", ev.Node, nodes)
		}
	}
}

func TestStreamLeadCapRespected(t *testing.T) {
	s := NewStream(Config{System: Titan, JobNodes: 2272}, rng.New(13))
	for i := 0; i < 20000; i++ {
		ev := s.Next()
		if ev.Lead > LeadCap {
			t.Fatalf("lead %.1f exceeds cap %d", ev.Lead, LeadCap)
		}
		if ev.Kind == KindPrediction && ev.Time < 0 {
			t.Fatalf("prediction before job start: %.2f", ev.Time)
		}
	}
}

func TestStreamDeterminism(t *testing.T) {
	mk := func() []Event {
		s := NewStream(Config{System: Titan, JobNodes: 500, FNRate: 0.1, FPRate: 0.1}, rng.New(42))
		out := make([]Event, 200)
		for i := range out {
			out[i] = s.Next()
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverged at event %d", i)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	ok := Config{System: Titan, JobNodes: 10}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{System: Titan, JobNodes: 0},
		{System: Titan, JobNodes: 10, FNRate: 1.5},
		{System: Titan, JobNodes: 10, FPRate: 1},
		{System: Titan, JobNodes: 10, LeadScale: -1},
		{System: System{}, JobNodes: 10},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRateEstimatorConvergesToObserved(t *testing.T) {
	e := NewRateEstimator(1e-5)
	// Observe failures at 10x the prior rate for a long time.
	elapsed := 0.0
	for i := 0; i < 1000; i++ {
		elapsed += 1e4 // one failure per 1e4 s → rate 1e-4
		e.Observe()
	}
	got := e.Rate(elapsed)
	if math.Abs(got-1e-4)/1e-4 > 0.05 {
		t.Fatalf("estimator rate %.3g, want ≈1e-4", got)
	}
}

func TestRateEstimatorPriorDominatesEarly(t *testing.T) {
	e := NewRateEstimator(1e-5)
	got := e.Rate(10)
	if math.Abs(got-1e-5)/1e-5 > 0.01 {
		t.Fatalf("early estimate %.3g strayed from prior 1e-5", got)
	}
}

func TestSequencesQuickValidLeads(t *testing.T) {
	m := DefaultLeadTimes()
	r := rng.New(50)
	f := func(_ uint8) bool {
		lead, seq := m.Sample(r)
		return lead > 0 && seq >= 1 && seq <= 10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewLeadTimeModelPanics(t *testing.T) {
	cases := [][]Sequence{
		nil,
		{{ID: 1, Weight: 0, MeanLeadSec: 1, CV: 1}},
		{{ID: 1, Weight: 1, MeanLeadSec: 0, CV: 1}},
		{{ID: 1, Weight: 1, MeanLeadSec: 1, CV: 0}},
	}
	for i, seqs := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid sequences accepted", i)
				}
			}()
			NewLeadTimeModel(seqs)
		}()
	}
}

// TestDefaultLeadTimesSharedAndReadOnly: DefaultLeadTimes is one model
// per process, and writing through Sequences cannot reach it.
func TestDefaultLeadTimesSharedAndReadOnly(t *testing.T) {
	m := DefaultLeadTimes()
	if DefaultLeadTimes() != m {
		t.Fatal("DefaultLeadTimes built two models")
	}
	tail := m.TailProb(41)
	seqs := m.Sequences()
	for i := range seqs {
		seqs[i].MeanLeadSec = 1
		seqs[i].ID = 0
	}
	if got := m.Sequences(); got[0].ID != 1 || got[0].MeanLeadSec != 43.3 || m.TailProb(41) != tail {
		t.Fatal("writing through Sequences() changed the shared lead-time model")
	}
	if _, id := m.Sample(rng.New(1)); id == 0 {
		t.Fatal("sampled a sequence ID written through Sequences()")
	}
}
