package multi

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cabd/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/detect.golden")

// goldenCase is one cell of the cross-commit multivariate golden.
type goldenCase struct {
	d, n   int
	strat  core.Strategy
	active bool
	flood  bool // piecewise-flat channel 0: MAD collapse, topByZ selection
}

func (c goldenCase) name() string {
	return fmt.Sprintf("d=%d n=%d strat=%v active=%v flood=%v", c.d, c.n, c.strat, c.active, c.flood)
}

// goldenCases spans channel counts 1-3, a series too short for most
// flanks, a mid-size and a long series, the three neighborhood
// strategies, unsupervised and active runs, and the candidate-flood
// fallback.
func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, d := range []int{1, 2, 3} {
		for _, n := range []int{12, 300, 1200} {
			for _, strat := range []core.Strategy{core.BinaryINN, core.LinearINN, core.FixedKNN} {
				for _, active := range []bool{false, true} {
					cs = append(cs, goldenCase{d: d, n: n, strat: strat, active: active})
				}
			}
		}
	}
	for _, d := range []int{1, 2} {
		for _, active := range []bool{false, true} {
			cs = append(cs, goldenCase{d: d, n: 300, strat: core.BinaryINN, active: active, flood: true})
		}
	}
	return cs
}

// floodSeries is gen's correlated fixture with channel 0 replaced by a
// piecewise-flat level signal jittered at ~15% of its points. More than
// half of channel 0's second differences are exactly zero, so its MAD
// collapses and every jittered neighborhood scores +Inf: the candidate
// union exceeds n/4 and topByZ must break the ties.
func floodSeries(seed int64, n, d int) *Series {
	s := gen(seed, n, d)
	rng := rand.New(rand.NewSource(seed + 1))
	for i := range s.Dims[0] {
		v := float64((i / 60) % 3)
		if rng.Float64() < 0.15 {
			v += rng.NormFloat64()
		}
		s.Dims[0][i] = v
	}
	return s
}

// flankPoints is the number of points the variance window of c — the INN
// hull padded by max(|INN|, 3) on each side, clipped to the series —
// holds outside the hull.
func flankPoints(c core.Candidate, n int) int {
	lo, hi := c.Index, c.Index
	for _, j := range c.INN {
		lo, hi = min(lo, j), max(hi, j)
	}
	pad := max(len(c.INN), 3)
	slo, shi := max(lo-pad, 0), min(hi+pad+1, n)
	return (lo - slo) + (shi - hi - 1)
}

// shortFlanks counts the candidates with fewer than two flank points.
func shortFlanks(res *core.Result, n int) int {
	short := 0
	for _, c := range res.Candidates {
		if flankPoints(c, n) < 2 {
			short++
		}
	}
	return short
}

// goldenLine runs one case and renders the SHA-256 of its
// resultFingerprint plus its short-flank candidate count.
func goldenLine(t *testing.T, c goldenCase) string {
	t.Helper()
	var s *Series
	if c.flood {
		s = floodSeries(int64(c.n+c.d), c.n, c.d)
	} else {
		s = gen(int64(100+c.d), c.n, c.d)
	}
	det := NewDetector(core.Options{Strategy: c.strat})
	var res *core.Result
	if c.active {
		res = det.DetectActive(s, mlabeler{s})
	} else {
		res = det.Detect(s)
	}
	if c.flood && len(res.Candidates) != c.n/4 {
		t.Errorf("%s: %d candidates, want the n/4 = %d flood cap", c.name(), len(res.Candidates), c.n/4)
	}
	return fmt.Sprintf("%s sha256=%x shortflanks=%d", c.name(),
		sha256.Sum256([]byte(resultFingerprint(res))), shortFlanks(res, c.n))
}

// TestDetectGolden pins multivariate detections across commits. A case
// whose recorded short-flank count is zero must reproduce its fingerprint
// bit for bit; a case with short-flank candidates may differ only in its
// fingerprint, because those candidates' variance score is defined as 0
// (the univariate rule) where the golden's generating commit scored 1.
// Regenerate with -update only for a deliberate change of detections.
func TestDetectGolden(t *testing.T) {
	path := filepath.Join("testdata", "detect.golden")
	var lines []string
	for _, c := range goldenCases() {
		lines = append(lines, goldenLine(t, c))
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("golden has %d cases, test has %d", len(wantLines), len(lines))
	}
	for i, got := range lines {
		w := wantLines[i]
		if got == w {
			continue
		}
		gotHead, gotTail, _ := strings.Cut(got, " sha256=")
		wantHead, wantTail, _ := strings.Cut(w, " sha256=")
		_, gotShort, _ := strings.Cut(gotTail, " ")
		_, wantShort, _ := strings.Cut(wantTail, " ")
		if gotHead != wantHead || gotShort != wantShort || wantShort == "shortflanks=0" {
			t.Errorf("detections drifted:\n got %s\nwant %s", got, w)
		}
	}
}
