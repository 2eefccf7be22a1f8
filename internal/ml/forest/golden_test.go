package forest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/train.golden")

// goldenCase is one cell of the cross-commit training golden.
type goldenCase struct {
	n, d     int
	weighted bool
	minLeaf  int
}

func (c goldenCase) name() string {
	return fmt.Sprintf("n=%d d=%d weighted=%v minleaf=%d", c.n, c.d, c.weighted, c.minLeaf)
}

// goldenCases spans the sizes CABD trains on (a handful of AL labels up
// to a long series' candidate set), both feature widths of the detector
// (univariate 4, multivariate 5), and both bootstrap samplers.
func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, n := range []int{1, 2, 3, 4, 7, 43, 80, 160, 416} {
		for _, d := range []int{4, 5} {
			for _, weighted := range []bool{false, true} {
				for _, minLeaf := range []int{1, 3} {
					cs = append(cs, goldenCase{n, d, weighted, minLeaf})
				}
			}
		}
	}
	return cs
}

// goldenData builds a 3-class training set whose columns are quantized
// to coarse grids so tied values are common (rounding also yields -0
// beside +0), with column 2 constant, plus CABD-style sqrt-balanced
// weights with a few heavily upweighted "oracle" rows.
func goldenData(c goldenCase) (Matrix, []int, []float64) {
	rng := rand.New(rand.NewSource(int64(1000*c.n + 10*c.d)))
	steps := []float64{0.5, 0.1, 0, 0.001, 1}
	cols := make([][]float64, c.d)
	y := make([]int, c.n)
	for i := range y {
		y[i] = rng.Intn(3)
	}
	for f := range cols {
		cols[f] = make([]float64, c.n)
		for i := range cols[f] {
			if steps[f] == 0 {
				cols[f][i] = 1.5
				continue
			}
			v := 0.7*float64(y[i]) + rng.NormFloat64()
			cols[f][i] = math.Round(v/steps[f]) * steps[f]
		}
	}
	if !c.weighted {
		return Matrix{Cols: cols, N: c.n}, y, nil
	}
	var counts [3]float64
	for _, l := range y {
		counts[l]++
	}
	w := make([]float64, c.n)
	for i, l := range y {
		w[i] = math.Sqrt(float64(c.n) / (3 * counts[l]))
		if i%11 == 5 {
			w[i] *= 5
		}
	}
	return Matrix{Cols: cols, N: c.n}, y, w
}

// floatsDigest hashes the exact bit patterns of xs.
func floatsDigest(xs []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenLine trains one case and renders its fingerprint: the SHA-256
// of the Snapshot JSON (every tree, threshold, leaf distribution and
// bootstrap bit) and of the batch full-ensemble and out-of-bag
// probability bits.
func goldenLine(t *testing.T, c goldenCase, workers int) string {
	t.Helper()
	m, y, w := goldenData(c)
	cfg := Config{Trees: 30, MinLeaf: c.minLeaf, NumClasses: 3, Workers: workers}
	f := TrainMatrixWeighted(m, y, w, cfg, rand.New(rand.NewSource(int64(c.n+c.d))))
	if f == nil {
		t.Fatalf("%s: nil forest", c.name())
	}
	snap, err := json.Marshal(f.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s snapshot=%x full=%s oob=%s", c.name(), sha256.Sum256(snap),
		floatsDigest(f.PredictProbaBatch(m, nil)), floatsDigest(f.PredictProbaOOBBatch(m, nil)))
}

// TestTrainGolden pins trained ensembles and their probabilities across
// commits: every in-binary differential test compares two paths of the
// same trainer, so only a checked-in fingerprint catches a split-search
// rewrite that moves a single threshold or leaf. Regenerate with
// -update only for a deliberate change of the trained model.
func TestTrainGolden(t *testing.T) {
	path := filepath.Join("testdata", "train.golden")
	var lines []string
	for _, c := range goldenCases() {
		seq := goldenLine(t, c, 1)
		if par := goldenLine(t, c, 0); par != seq {
			t.Errorf("%s: Workers 0 differs from the sequential oracle", c.name())
		}
		lines = append(lines, seq)
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
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
	for i, l := range lines {
		if l != wantLines[i] {
			t.Errorf("trained model drifted:\n got %s\nwant %s", l, wantLines[i])
		}
	}
}
