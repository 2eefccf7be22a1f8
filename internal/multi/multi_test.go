package multi

import (
	"math"
	"math/rand"
	"testing"

	"cabd/internal/core"
	"cabd/internal/eval"
	"cabd/internal/series"
)

// gen builds a d-dimensional seasonal series with correlated dimensions,
// spike anomalies (all dimensions), one cross-dimension collective
// anomaly and one change point.
func gen(seed int64, n, d int) *Series {
	rng := rand.New(rand.NewSource(seed))
	dims := make([][]float64, d)
	base := make([]float64, n)
	ar := 0.0
	for i := range base {
		ar = 0.7*ar + rng.NormFloat64()*0.1
		base[i] = 2*math.Sin(2*math.Pi*float64(i)/150) + ar
	}
	for k := range dims {
		dim := make([]float64, n)
		for i := range dim {
			dim[i] = base[i]*float64(k+1)*0.5 + rng.NormFloat64()*0.1
		}
		dims[k] = dim
	}
	s := NewSeries("multi", dims)
	s.Labels = make([]series.Label, n)
	// Spikes at fixed positions across all dimensions.
	for _, p := range []int{n / 5, n / 2} {
		for k := range dims {
			dims[k][p] += 15
		}
		s.Labels[p] = series.SingleAnomaly
	}
	// A collective anomaly visible only in dimension 0.
	for i := 3 * n / 4; i < 3*n/4+6 && i < n; i++ {
		dims[0][i] += 12
		s.Labels[i] = series.CollectiveAnomaly
	}
	return s
}

// mlabeler adapts the multivariate series to core.Labeler.
type mlabeler struct{ s *Series }

func (m mlabeler) Label(i int) series.Label { return m.s.LabelAt(i) }

func TestDetectFindsCrossDimensionSpikes(t *testing.T) {
	s := gen(1, 1000, 3)
	res := NewDetector(core.Options{}).Detect(s)
	m := eval.Match(res.AnomalyIndices(), s.AnomalyIndices(), 2)
	if m.Recall < 0.7 {
		t.Errorf("multivariate recall = %v (pred %v)", m.Recall, res.AnomalyIndices())
	}
}

func TestSingleDimensionAnomalyDetected(t *testing.T) {
	// The dimension-0-only collective anomaly must still surface: the
	// joint embedding and per-dimension candidate scan see it.
	s := gen(2, 1000, 3)
	res := NewDetector(core.Options{}).DetectActive(s, mlabeler{s})
	start := 3 * 1000 / 4
	hits := 0
	for _, i := range res.AnomalyIndices() {
		if i >= start-1 && i < start+7 {
			hits++
		}
	}
	if hits < 3 {
		t.Errorf("dimension-0 collective anomaly coverage %d/6: %v",
			hits, res.AnomalyIndices())
	}
}

func TestActiveLearningImprovesMulti(t *testing.T) {
	s := gen(3, 1200, 2)
	det := NewDetector(core.Options{})
	unsup := det.Detect(s)
	al := det.DetectActive(s, mlabeler{s})
	fu := eval.Match(unsup.AnomalyIndices(), s.AnomalyIndices(), 2).F1
	fa := eval.Match(al.AnomalyIndices(), s.AnomalyIndices(), 2).F1
	if fa < fu-0.05 {
		t.Errorf("AL degraded multivariate F: %v -> %v", fu, fa)
	}
	if fa < 0.6 {
		t.Errorf("multivariate AL F = %v, want >= 0.6", fa)
	}
}

func TestUnivariateEquivalence(t *testing.T) {
	// d = 1 must behave like the univariate detector on the same data
	// (identical embedding up to the shared geometry).
	rng := rand.New(rand.NewSource(4))
	vals := make([]float64, 800)
	ar := 0.0
	for i := range vals {
		ar = 0.7*ar + rng.NormFloat64()*0.1
		vals[i] = 2*math.Sin(2*math.Pi*float64(i)/120) + ar
	}
	vals[400] += 15
	ms := NewSeries("uni", [][]float64{vals})
	mres := NewDetector(core.Options{}).Detect(ms)
	ures := core.NewDetector(core.Options{}).Detect(series.New("uni", vals))
	mFound, uFound := false, false
	for _, i := range mres.AnomalyIndices() {
		if i == 400 {
			mFound = true
		}
	}
	for _, i := range ures.AnomalyIndices() {
		if i == 400 {
			uFound = true
		}
	}
	if mFound != uFound {
		t.Errorf("1-D multivariate (found=%v) disagrees with univariate (found=%v)",
			mFound, uFound)
	}
}

func TestSeriesAccessors(t *testing.T) {
	s := gen(5, 300, 2)
	if s.Len() != 300 || s.D() != 2 {
		t.Errorf("Len/D = %d/%d", s.Len(), s.D())
	}
	if s.LabelAt(-1) != series.Normal || s.LabelAt(999) != series.Normal {
		t.Error("out-of-range labels")
	}
	if len(s.AnomalyIndices()) == 0 {
		t.Error("no anomalies recorded")
	}
}

func TestDegenerate(t *testing.T) {
	d := NewDetector(core.Options{})
	if res := d.Detect(NewSeries("e", nil)); len(res.Anomalies) != 0 {
		t.Error("empty series")
	}
	if res := d.Detect(NewSeries("t", [][]float64{{1, 2}})); len(res.Anomalies) != 0 {
		t.Error("tiny series")
	}
	flat := make([]float64, 100)
	if res := d.Detect(NewSeries("f", [][]float64{flat, flat})); len(res.Anomalies) != 0 {
		t.Error("flat series produced detections")
	}
}
