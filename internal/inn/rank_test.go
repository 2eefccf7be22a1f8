package inn

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cabd/internal/series"
)

// testSeriesSet returns value slices covering the probe engine's hard
// cases: generic noise, noise with collective anomalies and level shifts,
// flat lines (every embedded point duplicated in value), and coarse
// quantized series (dense exact distance ties).
func testSeriesSet(rng *rand.Rand) [][]float64 {
	var out [][]float64

	noise := make([]float64, 160)
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	out = append(out, noise)

	structured := make([]float64, 200)
	for i := range structured {
		structured[i] = 0.2 * rng.NormFloat64()
	}
	for i := 60; i < 66; i++ {
		structured[i] += 30
	}
	for i := 140; i < 200; i++ {
		structured[i] += 8
	}
	out = append(out, structured)

	flat := make([]float64, 120)
	for i := range flat {
		flat[i] = 7
	}
	out = append(out, flat)

	quantized := make([]float64, 150)
	for i := range quantized {
		quantized[i] = float64(rng.Intn(3))
	}
	out = append(out, quantized)

	return out
}

// TestInTopKRankMatchesLegacy is the probe-level differential test: the
// rank-query engine must answer every membership probe exactly like the
// legacy full-k-NN-scan oracle, ties and duplicate points included.
func TestInTopKRankMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for si, vals := range testSeriesSet(rng) {
		c := FromSeries(series.New("diff", vals))
		rank := c.WithLegacyProbes(false)
		memo := rank.WithRankMemo(0)
		legacy := c.WithLegacyProbes(true)
		n := c.Len()
		for probe := 0; probe < 3000; probe++ {
			i := rng.Intn(n)
			j := rng.Intn(n)
			k := 1 + rng.Intn(n)
			want := legacy.InTopK(i, j, k)
			if got := rank.InTopK(i, j, k); got != want {
				t.Fatalf("series %d: InTopK(%d,%d,%d) rank=%v legacy=%v",
					si, i, j, k, got, want)
			}
			if got := memo.InTopK(i, j, k); got != want {
				t.Fatalf("series %d: memoized InTopK(%d,%d,%d)=%v, legacy=%v",
					si, i, j, k, got, want)
			}
		}
	}
}

// TestNeighborhoodsEngineIdentical asserts Minimal/Binary/MutualSet are
// bit-identical across the legacy oracle, the rank engine, and the rank
// engine with a shared memo — the engine swap must not move a single
// member.
func TestNeighborhoodsEngineIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for si, vals := range testSeriesSet(rng) {
		c := FromSeries(series.New("diff", vals))
		engines := map[string]*Computer{
			"rank":      c.WithLegacyProbes(false),
			"rank+memo": c.WithLegacyProbes(false).WithRankMemo(0),
		}
		legacy := c.WithLegacyProbes(true)
		n := c.Len()
		for _, tlim := range []int{1, 3, c.RangeLimit(0), c.RangeLimit(0.2), n - 1} {
			for i := 0; i < n; i += 1 + n/40 {
				wantMin := legacy.Minimal(i, tlim)
				wantBin := legacy.Binary(i, tlim)
				wantSet := legacy.MutualSet(i, tlim)
				for name, eng := range engines {
					if got := eng.Minimal(i, tlim); !reflect.DeepEqual(got, wantMin) {
						t.Fatalf("series %d %s: Minimal(%d,%d)=%v, legacy %v",
							si, name, i, tlim, got, wantMin)
					}
					if got := eng.Binary(i, tlim); !reflect.DeepEqual(got, wantBin) {
						t.Fatalf("series %d %s: Binary(%d,%d)=%v, legacy %v",
							si, name, i, tlim, got, wantBin)
					}
					if got := eng.MutualSet(i, tlim); !reflect.DeepEqual(got, wantSet) {
						t.Fatalf("series %d %s: MutualSet(%d,%d)=%v, legacy %v",
							si, name, i, tlim, got, wantSet)
					}
				}
			}
		}
	}
}

// TestRankMemoConcurrent hammers one shared memo from many goroutines
// (run under -race by make check) and checks results against a serial
// memo-less engine.
func TestRankMemoConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 400)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	for i := 100; i < 107; i++ {
		vals[i] += 25
	}
	c := FromSeries(series.New("conc", vals))
	shared := c.WithRankMemo(512) // tiny bound: forces shard resets
	tlim := c.RangeLimit(0)
	want := make([][]int, c.Len())
	for i := range want {
		want[i] = c.Binary(i, tlim)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(seed)))
			for probe := 0; probe < 400; probe++ {
				i := r.Intn(c.Len())
				if got := shared.Binary(i, tlim); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("concurrent Binary(%d)=%v, want %v", i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestNComputerEngineIdentical is the multivariate (ND index) counterpart
// of the engine-identity test.
func TestNComputerEngineIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n, dim := 120, 3
	pts := make([][]float64, n)
	for i := range pts {
		row := make([]float64, dim)
		row[0] = float64(i)
		for j := 1; j < dim; j++ {
			row[j] = float64(rng.Intn(3)) // quantized: exact ties
		}
		pts[i] = row
	}
	c := NewComputerND(pts)
	rank := c.WithLegacyProbes(false).WithRankMemo(0)
	legacy := c.WithLegacyProbes(true)
	tlim := c.RangeLimit(0)
	for i := 0; i < n; i++ {
		if got, want := rank.Minimal(i, tlim), legacy.Minimal(i, tlim); !reflect.DeepEqual(got, want) {
			t.Fatalf("ND Minimal(%d)=%v, legacy %v", i, got, want)
		}
		if got, want := rank.Binary(i, tlim), legacy.Binary(i, tlim); !reflect.DeepEqual(got, want) {
			t.Fatalf("ND Binary(%d)=%v, legacy %v", i, got, want)
		}
		if got, want := rank.MutualSet(i, tlim), legacy.MutualSet(i, tlim); !reflect.DeepEqual(got, want) {
			t.Fatalf("ND MutualSet(%d)=%v, legacy %v", i, got, want)
		}
	}
}
