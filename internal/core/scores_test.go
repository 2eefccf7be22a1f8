package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cabd/internal/inn"
	"cabd/internal/series"
	"cabd/internal/stats"
)

// scoreSeries runs candidate estimation and scoring on a raw series.
func scoreSeries(vals []float64, opts Options) []Candidate {
	opts = opts.defaults()
	std := stats.Standardize(vals)
	zs := &series.Series{Name: "t", Values: std}
	idx, zsc := candidateIndices(zs, opts.CandidateZ)
	cands := make([]Candidate, len(idx))
	for i, ci := range idx {
		cands[i] = Candidate{Index: ci, SecondDiffZ: zsc[i]}
	}
	sc := newScorer([][]float64{std}, inn.FromSeries(zs), opts)
	sc.scoreAll(context.Background(), cands)
	return cands
}

func candidateAt(cands []Candidate, idx int) *Candidate {
	for i := range cands {
		if cands[i].Index == idx {
			return &cands[i]
		}
	}
	return nil
}

func noisyBase(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 0.15
	}
	return vals
}

func TestScoresSingleAnomaly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := noisyBase(rng, 800)
	vals[400] = 25
	c := candidateAt(scoreSeries(vals, Options{}), 400)
	if c == nil {
		t.Fatal("spike is not a candidate")
	}
	if c.Magnitude != 0 {
		t.Errorf("single anomaly MS = %v, want 0 (empty INN)", c.Magnitude)
	}
	if c.Variance < 0.5 {
		t.Errorf("single anomaly VS = %v, want high", c.Variance)
	}
}

func TestScoresCollectiveAnomaly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := noisyBase(rng, 800)
	for i := 400; i < 407; i++ {
		vals[i] = 25 + rng.NormFloat64()*0.1
	}
	c := candidateAt(scoreSeries(vals, Options{}), 400)
	if c == nil {
		t.Fatal("group edge is not a candidate")
	}
	if len(c.INN) < 4 || len(c.INN) > 10 {
		t.Errorf("collective INN size = %d, want ~6", len(c.INN))
	}
	if c.Magnitude <= 0 || c.Magnitude >= 0.05 {
		t.Errorf("collective MS = %v, want in (0, 0.05)", c.Magnitude)
	}
	if c.Variance < 0.5 {
		t.Errorf("collective VS = %v, want high", c.Variance)
	}
}

func TestScoresChangePoint(t *testing.T) {
	// AR-smooth base: a level shift's new segment must be locally
	// connected for its one-sided INN to grow (pure white noise has no
	// mutual temporal neighbors anywhere).
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 800)
	ar := 0.0
	for i := range vals {
		ar = 0.8*ar + rng.NormFloat64()*0.05
		vals[i] = ar
	}
	for i := 400; i < 800; i++ {
		vals[i] += 10
	}
	c := candidateAt(scoreSeries(vals, Options{}), 400)
	if c == nil {
		t.Fatal("level shift is not a candidate")
	}
	if c.Variance >= 0.25 {
		t.Errorf("change point VS = %v, want low", c.Variance)
	}
	if c.Asymmetry < 0.7 {
		t.Errorf("change point asymmetry = %v, want near 1", c.Asymmetry)
	}
	if c.RightExtent < 3 || c.LeftExtent > c.RightExtent/4+1 {
		t.Errorf("change extents L=%d R=%d, want one-sided to the right",
			c.LeftExtent, c.RightExtent)
	}
}

func TestScoresBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vals := noisyBase(rng, 600)
	vals[100] = 10
	for i := 300; i < 306; i++ {
		vals[i] = -12
	}
	for _, c := range scoreSeries(vals, Options{}) {
		if c.Magnitude < 0 || c.Magnitude > 1 {
			t.Errorf("MS out of range: %v", c.Magnitude)
		}
		if c.Correlation < 0 || c.Correlation > 1 {
			t.Errorf("CS out of range: %v", c.Correlation)
		}
		if c.Variance < 0 || c.Variance > 1 {
			t.Errorf("VS out of range: %v", c.Variance)
		}
		if c.Asymmetry < 0 || c.Asymmetry > 1 {
			t.Errorf("asymmetry out of range: %v", c.Asymmetry)
		}
	}
}

func TestAblationZeroesFeatures(t *testing.T) {
	c := Candidate{Magnitude: 0.3, Correlation: 0.4, Variance: 0.5, Asymmetry: 0.6}
	f := c.features(Options{DisableMagnitude: true, DisableVariance: true}, baseFeatures)
	if f[0] != 0 || f[1] != 0.4 || f[2] != 0 || f[3] != 0.6 {
		t.Errorf("ablated features = %v", f)
	}
	full := c.features(Options{}, baseFeatures)
	if full[0] != 0.3 || full[1] != 0.4 || full[2] != 0.5 || full[3] != 0.6 {
		t.Errorf("full features = %v", full)
	}
}

// TestDegradedPilotRescored is the regression test for the mixed-feature
// degradation bug: when the deadline pilot triggers the FixedKNN
// downgrade, the pilot candidates must be re-scored under the degraded
// strategy — every candidate's neighborhood, pilot batch included, must
// carry FixedKNN semantics so the classifier trains on one feature space.
func TestDegradedPilotRescored(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vals := noisyBase(rng, 900)
	for i := 200; i < 206; i++ {
		vals[i] = 18
	}
	vals[500] = -22
	for i := 700; i < 704; i++ {
		vals[i] = 15
	}
	opts := Options{}.defaults() // Strategy = BinaryINN
	std := stats.Standardize(vals)
	zs := &series.Series{Name: "deg", Values: std}
	idx, zsc := candidateIndices(zs, opts.CandidateZ)
	if len(idx) <= 4 {
		t.Fatalf("need more than a pilot's worth of candidates, got %d", len(idx))
	}
	cands := make([]Candidate, len(idx))
	for i, ci := range idx {
		cands[i] = Candidate{Index: ci, SecondDiffZ: zsc[i]}
	}
	comp := inn.FromSeries(zs)
	sc := newScorer([][]float64{std}, comp, opts)
	sc.forceDegrade = true
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	degraded, err := sc.scoreAll(ctx, cands)
	if err != nil {
		t.Fatalf("scoreAll: %v", err)
	}
	if !degraded {
		t.Fatal("forced pilot degradation did not report degraded")
	}
	if sc.resolved != FixedKNN {
		t.Fatalf("resolved strategy = %v, want FixedKNN", sc.resolved)
	}
	// The downgrade decision must never write through to the shared
	// Options value the worker pool reads — the race the resolved field
	// exists to prevent.
	if sc.opts.Strategy != BinaryINN {
		t.Fatalf("degradation mutated shared options (Strategy = %v)", sc.opts.Strategy)
	}
	// Every candidate — pilot positions 0..3 included — must carry the
	// FixedKNN neighborhood, not a leftover Binary-INN one.
	for pos := range cands {
		want := comp.KNN(cands[pos].Index, opts.KNNK)
		if !reflect.DeepEqual(cands[pos].INN, want) {
			t.Errorf("candidate %d (index %d): INN = %v, want FixedKNN %v",
				pos, cands[pos].Index, cands[pos].INN, want)
		}
	}
}

func TestStrategiesAgreeOnCleanGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := noisyBase(rng, 600)
	for i := 300; i < 306; i++ {
		vals[i] = 20
	}
	for _, strat := range []Strategy{BinaryINN, LinearINN} {
		c := candidateAt(scoreSeries(vals, Options{Strategy: strat}), 300)
		if c == nil {
			t.Fatalf("strategy %v: no candidate at group edge", strat)
		}
		if c.Variance < 0.5 {
			t.Errorf("strategy %v: VS = %v", strat, c.Variance)
		}
	}
	// FixedKNN yields a constant-size neighborhood.
	c := candidateAt(scoreSeries(vals, Options{Strategy: FixedKNN, KNNK: 7}), 300)
	if c == nil || len(c.INN) != 7 {
		t.Errorf("FixedKNN neighborhood size = %v, want 7", c)
	}
}
