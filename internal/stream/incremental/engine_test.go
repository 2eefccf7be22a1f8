package incremental

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cabd/internal/core"
	"cabd/internal/series"
	"cabd/internal/stats"
)

// streamSignal is the seeded test stream: sinusoid + noise with spikes,
// a level shift, a flat (MAD-collapsing) stretch, and near-duplicate
// ties — every regime the candidate and neighborhood stages branch on.
func streamSignal(rng *rand.Rand, i int) float64 {
	switch {
	case i > 150 && i < 190: // flat stretch
		return 2.5
	case i%83 == 0: // spikes
		return 30 + rng.NormFloat64()
	case i%47 == 0: // near-duplicates
		return rng.NormFloat64() * 1e-9
	default:
		base := math.Sin(float64(i) / 11)
		if i > 260 {
			base += 8 // level shift
		}
		return base + rng.NormFloat64()*0.4
	}
}

// TestIncrementalMatchesFull is the differential oracle: at every hop of
// a seeded stream, the incremental engine's DetectEnvCtx result must be
// bit-identical — detections, candidates, scores, query counts — to a
// full DetectCtx rerun over the same window. The inputs cover a small
// window with every regime of streamSignal, the default window 1024, and
// a mostly flat stream whose MAD of Δ″ collapses to zero so candidate
// estimation takes the topDeviations flood fallback.
func TestIncrementalMatchesFull(t *testing.T) {
	cases := []struct {
		name               string
		window, hop, total int
		signal             func(*rand.Rand, int) float64
		flood              bool // every analysis must hit the flood fallback
	}{
		{"w64", 64, 7, 400, streamSignal, false},
		{"w1024", 1024, 128, 6 * 1024, streamSignal, false},
		{"mad-collapse", 256, 32, 1600, stepSignal, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkIncrementalMatchesFull(t, tc.window, tc.hop, tc.total, tc.signal, tc.flood)
		})
	}
}

func checkIncrementalMatchesFull(t *testing.T, window, hop, total int, signal func(*rand.Rand, int) float64, flood bool) {
	opts := core.Options{Seed: 42}
	full := core.NewDetector(opts)
	inc := core.NewDetector(opts)
	eng := New(FromOptions(inc.Options()))

	rng := rand.New(rand.NewSource(99))
	var buf []float64
	start := 0
	analyses := 0
	for i := 0; i < total; i++ {
		v := signal(rng, i)
		buf = append(buf, v)
		if len(buf) > window {
			drop := len(buf) - window
			buf = buf[drop:]
			start += drop
		}
		if i%hop != hop-1 || len(buf) < 8 {
			continue
		}
		analyses++
		s := series.New("stream", buf)
		want, err := full.DetectCtx(context.Background(), s)
		if err != nil {
			t.Fatalf("start=%d: full detect: %v", start, err)
		}
		env := eng.BuildEnv(buf, start)
		got, err := inc.DetectEnvCtx(context.Background(), s, env)
		if err != nil {
			t.Fatalf("start=%d: incremental detect: %v", start, err)
		}
		compareResults(t, start, got, want)
		if flood && (stats.MAD(series.SecondDiff(buf)) != 0 || len(want.Candidates) != len(buf)/4) {
			t.Fatalf("start=%d: no flood fallback (%d candidates, window %d)", start, len(want.Candidates), len(buf))
		}
	}
	if analyses < 40 {
		t.Fatalf("only %d analyses ran; stream setup is wrong", analyses)
	}
}

// stepSignal is flat between sparse steps, with a one-point blip every
// sixth point: each blip leaves two nonzero Δ″, so about a third of Δ″
// is nonzero — the median and MAD of Δ″ are zero, RobustZ flags every
// nonzero Δ″ as +Inf, and the candidate count passes n/4, which is the
// flood fallback.
func stepSignal(rng *rand.Rand, i int) float64 {
	level := float64((i / 97) % 5)
	if i%6 == 0 {
		level += 0.5 * float64(rng.Intn(3)+1)
	}
	return level
}

func compareResults(t *testing.T, start int, got, want *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Anomalies, want.Anomalies) {
		t.Fatalf("start=%d: anomalies\n inc %+v\nfull %+v", start, got.Anomalies, want.Anomalies)
	}
	if !reflect.DeepEqual(got.ChangePoints, want.ChangePoints) {
		t.Fatalf("start=%d: change points\n inc %+v\nfull %+v", start, got.ChangePoints, want.ChangePoints)
	}
	if got.Queries != want.Queries {
		t.Fatalf("start=%d: queries inc=%d full=%d", start, got.Queries, want.Queries)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("start=%d: candidate count inc=%d full=%d", start, len(got.Candidates), len(want.Candidates))
	}
	for i := range got.Candidates {
		if !reflect.DeepEqual(got.Candidates[i], want.Candidates[i]) {
			t.Fatalf("start=%d: candidate %d\n inc %+v\nfull %+v", start, i, got.Candidates[i], want.Candidates[i])
		}
	}
}
