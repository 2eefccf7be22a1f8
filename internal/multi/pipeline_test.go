package multi

import (
	"context"
	"reflect"
	"testing"
	"time"

	"cabd/internal/core"
	"cabd/internal/inn"
	"cabd/internal/obs"
	"cabd/internal/stats"
)

// jointComputer rebuilds the neighborhood computer the detector scores
// s with: the ND index over the standardized joint embedding.
func jointComputer(s *Series) *inn.Computer {
	std := make([][]float64, s.D())
	for k, dim := range s.Dims {
		std[k] = stats.Standardize(dim)
	}
	return inn.NewComputerND(embed(std))
}

// TestShortFlankVarianceIsZero: a pattern whose padded window leaves
// fewer than two flank points has no "rest" deviation to compare, and
// scores variance 0 — the univariate rule. The multivariate scorer used
// to score such candidates 1 (full variance drop), which the
// bootstrap's variance rule reads as strong anomaly evidence.
func TestShortFlankVarianceIsZero(t *testing.T) {
	for _, n := range []int{8, 12} {
		s := gen(102, n, 2)
		res := NewDetector(core.Options{Strategy: core.FixedKNN}).Detect(s)
		short := 0
		for _, c := range res.Candidates {
			if flankPoints(c, n) >= 2 {
				continue
			}
			short++
			if c.Variance != 0 {
				t.Errorf("n=%d candidate %d: %d flank points, Variance = %v, want 0",
					n, c.Index, flankPoints(c, n), c.Variance)
			}
		}
		if short == 0 {
			t.Fatalf("n=%d: fixture has no short-flank candidate", n)
		}
	}
}

// TestMutualSetStrategyHonoured: Strategy MutualSetINN must grow the
// unconstrained mutual neighborhood over the joint embedding, as the
// reported Result.Strategy says — not Binary's contiguous one.
func TestMutualSetStrategyHonoured(t *testing.T) {
	s := gen(11, 1200, 2)
	det := NewDetector(core.Options{Strategy: core.MutualSetINN})
	res := det.Detect(s)
	if res.Strategy != core.MutualSetINN {
		t.Fatalf("Result.Strategy = %v, want %v", res.Strategy, core.MutualSetINN)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("fixture yields no candidates")
	}
	comp := jointComputer(s)
	tlim := comp.RangeLimit(det.Options().RangeFrac)
	for _, c := range res.Candidates {
		if want := comp.MutualSet(c.Index, tlim); !reflect.DeepEqual(c.INN, want) {
			t.Fatalf("candidate %d: INN %v, want MutualSet %v", c.Index, c.INN, want)
		}
	}
}

// TestDeadlinePilotDegradesMulti: a multivariate run under a context
// deadline gets the univariate deadline pilot. With a fake clock that
// advances 40ms per reading and starts 90ms before the deadline, the
// pilot's projection overruns the half-budget on every machine: the run
// must report the headroom degradation and score every candidate with
// the FixedKNN neighborhood.
func TestDeadlinePilotDegradesMulti(t *testing.T) {
	deadline := time.Now().Add(time.Hour) // ctx itself never fires
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	clk := obs.NewFakeClock(deadline.Add(-90 * time.Millisecond))
	clk.SetStep(40 * time.Millisecond)

	s := gen(41, 1200, 2)
	det := NewDetector(core.Options{Obs: obs.NewWithClock(clk)})
	res, err := det.DetectCtx(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Strategy != core.FixedKNN {
		t.Fatalf("Degraded=%v Strategy=%v, want a FixedKNN degradation", res.Degraded, res.Strategy)
	}
	if want := "context deadline headroom too small for INN scoring"; res.DegradeReason != want {
		t.Fatalf("DegradeReason = %q, want %q", res.DegradeReason, want)
	}
	if len(res.Candidates) <= 4 {
		t.Fatalf("fixture yields %d candidates, need a post-pilot phase", len(res.Candidates))
	}
	comp := jointComputer(s)
	for _, c := range res.Candidates {
		if want := comp.KNN(c.Index, det.Options().KNNK); !reflect.DeepEqual(c.INN, want) {
			t.Fatalf("candidate %d: INN %v, want FixedKNN %v", c.Index, c.INN, want)
		}
	}
}
