package main

import (
	"math"
	"testing"
	"time"
)

func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	for n := 20; n <= 3000; n += 7 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		d := summarize(xs)
		beyond := 0
		for _, x := range xs {
			if x > d.Tail {
				beyond++
			}
		}
		if beyond < 10 {
			t.Fatalf("n=%d: tail %g has %d samples beyond it, want >= 10", n, d.Tail, beyond)
		}
		if d.TailQ > 0.99 {
			t.Fatalf("n=%d: tail quantile %g above p99", n, d.TailQ)
		}
		if n >= 1000 && d.TailQ != 0.99 {
			t.Fatalf("n=%d: tail quantile %g, want p99", n, d.TailQ)
		}
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {5000, 0.99}, {100, 0.9}, {200, 0.95}, {15, 0.5}, {0, 0.5}} {
		if got := tailQuantile(tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	d := summarize(xs)
	if d.N != 100 || d.P50 != 50 || d.Tail != 90 {
		t.Fatalf("summarize(1..100) = %+v, want N 100, P50 50, Tail 90", d)
	}
	if xs[0] != 100 {
		t.Fatalf("summarize reordered its input")
	}
}

func TestPooledF1(t *testing.T) {
	var p prf
	p.add(8, 2, 0)
	p.add(0, 0, 10)
	// precision 8/10, recall 8/18.
	want := 2 * 0.8 * (8.0 / 18) / (0.8 + 8.0/18)
	if math.Abs(p.f1()-want) > 1e-12 {
		t.Fatalf("f1 = %g, want %g", p.f1(), want)
	}
}

func TestWindowedIgnoresOneStalledWindow(t *testing.T) {
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = 10 + float64(i%10)
	}
	for i := 100; i < 200; i++ {
		xs[i] = 500 // the middle window ran during a stall
	}
	d, groups := windowed(xs)
	if groups != 3 || d.P50 != 14 || d.Tail != 18 || d.N != 300 {
		t.Fatalf("windowed = %+v in %d groups, want P50 14, Tail 18 over 300 samples in 3", d, groups)
	}
	if _, groups := windowed(make([]float64, 5000)); groups != maxGroups {
		t.Fatalf("5000 samples split into %d groups, want %d", groups, maxGroups)
	}
	if d, groups := windowed(xs[:150]); groups != 1 || d.N != 150 {
		t.Fatalf("150 samples: %+v in %d groups, want one", d, groups)
	}
	if whole := summarize(xs); whole.Tail != 500 {
		t.Fatalf("unwindowed tail %g, want the stall's 500", whole.Tail)
	}
}

func TestWindowedReadsLeastDisturbedGroups(t *testing.T) {
	xs := make([]float64, 700)
	for i := range xs {
		xs[i] = 10 + float64(i%10)
	}
	slow := append([]float64(nil), xs...)
	for i := 0; i < 500; i++ {
		slow[i] *= 3 // a slow spell over five of the seven groups
	}
	d, groups := windowed(slow)
	if groups != maxGroups || d.P50 != 14 || d.Tail != 18 {
		t.Fatalf("windowed = %+v in %d groups, want P50 14, Tail 18 in %d", d, groups, maxGroups)
	}
	// A program twice as slow throughout moves the figures in proportion.
	for i := range xs {
		xs[i] *= 2
	}
	if d, _ := windowed(xs); d.P50 != 28 || d.Tail != 36 {
		t.Fatalf("windowed of a uniform 2x slowdown = %+v, want P50 28, Tail 36", d)
	}
}

func TestWindowedRate(t *testing.T) {
	t0 := time.Unix(0, 0)
	var at []time.Time
	var work []float64
	// 10/s for 10 s, except the first 6 s, which completed 2/s.
	for i := 0; i < 100; i++ {
		if i < 60 && i%5 != 0 {
			continue
		}
		at, work = append(at, t0.Add(time.Duration(i)*100*time.Millisecond)), append(work, 1)
	}
	if got := windowedRate(t0, t0.Add(10*time.Second), at, work); math.Abs(got-10) > 1e-9 {
		t.Fatalf("windowedRate = %g, want 10", got)
	}
}
