package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"cabd/internal/sanitize"
	"cabd/internal/series"
)

// hostileSeries returns length-n inputs that stress the feature
// computations: NaN and ±Inf runs, out-of-range magnitudes, constant
// series and flat runs that collapse the MAD.
func hostileSeries(n int) []struct {
	name   string
	values []float64
} {
	base := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Sin(float64(i)/3) + 0.05*float64(i%5)
		}
		return v
	}
	run := func(val float64, from, length int) []float64 {
		v := base()
		for i := from; i < from+length && i < n; i++ {
			v[i] = val
		}
		return v
	}
	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 5
	}
	spikeOnFlat := append([]float64(nil), constant...)
	spikeOnFlat[n/2] = 40
	flatRun := run(0.25, 1, max(n-3, 1))
	flatRun[n-1] = 9
	edges := base()
	edges[0], edges[n-1] = math.NaN(), math.NaN()
	return []struct {
		name   string
		values []float64
	}{
		{"clean", base()},
		{"nan-run", run(math.NaN(), n/3, 3)},
		{"posinf-run", run(math.Inf(1), n/2, 2)},
		{"neginf-run", run(math.Inf(-1), 1, 2)},
		{"extreme-run", run(1e200, n/2, 2)},
		{"nan-edges", edges},
		{"constant", constant},
		{"spike-on-flat", spikeOnFlat},
		{"flat-run", flatRun},
	}
}

// TestFeatureMatrixFinite holds the forest trainer's precondition (its
// split search orders each column, and NaN has no place in an order)
// over hostile input: under every sanitize policy, whatever reaches
// DetectCtx must produce a NaN- and Inf-free feature matrix, a model
// with finite thresholds and finite confidence weights. The matrix is
// rebuilt from the returned candidates through the same fill the
// scoring workers use.
func TestFeatureMatrixFinite(t *testing.T) {
	policies := []sanitize.Policy{sanitize.Interpolate, sanitize.Drop, sanitize.Reject}
	det := NewDetector(Options{})
	trained := 0
	for _, n := range []int{4, 5, 6, 7, 8, 64, 300} {
		for _, in := range hostileSeries(n) {
			for _, p := range policies {
				t.Run(fmt.Sprintf("n=%d/%s/%v", n, in.name, p), func(t *testing.T) {
					clean, _, _, err := sanitize.Series(in.values, sanitize.Config{Policy: p})
					if err != nil {
						return // rejected, too short or all bad: nothing reaches the detector
					}
					res, err := det.DetectCtx(context.Background(), &series.Series{Values: clean})
					if err != nil {
						t.Fatal(err)
					}
					checkFinite(t, det, res)
					if res.Model != nil {
						trained++
					}
				})
			}
		}
	}
	if trained == 0 {
		t.Fatal("no case reached the classifier")
	}
	t.Logf("%d cases trained a model", trained)
}

func checkFinite(t *testing.T, det *Detector, res *Result) {
	t.Helper()
	fm := getFeatMatrix(len(res.Candidates), featWidth(&det.opts))
	defer putFeatMatrix(fm)
	fm.fillFromCandidates(res.Candidates, &det.opts)
	for f, col := range fm.matrix().Cols {
		for i, v := range col {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("feature %d of candidate %d (index %d) = %v", f, i, res.Candidates[i].Index, v)
			}
		}
	}
	for _, c := range res.Candidates {
		if math.IsNaN(c.Confidence) || math.IsInf(c.Confidence, 0) {
			t.Fatalf("candidate %d confidence = %v", c.Index, c.Confidence)
		}
	}
	if res.Model == nil {
		return
	}
	for ti, tr := range res.Model.Snapshot().Trees {
		for _, nd := range tr.Nodes {
			if nd.Probs == nil && (math.IsNaN(nd.Threshold) || math.IsInf(nd.Threshold, 0)) {
				t.Fatalf("tree %d split threshold = %v", ti, nd.Threshold)
			}
		}
	}
}
