package main

import (
	"math"
	"sort"
	"time"
)

// tailQuantile is the quantile reported as a latency tail: p99 when at
// least ten samples lie beyond it, otherwise the highest quantile that
// still leaves ten samples beyond it, and never below the median.
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	q := 1 - 10/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// dist summarizes a latency sample: its median, its tail (see
// tailQuantile) and the count both rest on. TailQ is the quantile of
// the tail, per group for a windowed summary.
type dist struct {
	N     int
	P50   float64
	Tail  float64
	TailQ float64
}

func summarize(xs []float64) dist {
	ys := append([]float64(nil), xs...)
	q := tailQuantile(len(ys))
	return dist{N: len(ys), P50: quantile(ys, 0.5), Tail: quantile(ys, q), TailQ: q}
}

// windows is how many equal time windows a closed loop's throughput is
// split into; the figure is the upper quartile over the windows (rateQ),
// for the reason groupQ gives for latencies.
const (
	windows = 5
	rateQ   = 1 - groupQ
)

// Latencies are split the same way into up to maxGroups consecutive
// groups of at least minGroup samples.
const (
	maxGroups = 7
	minGroup  = 100
)

// groupQ is the quantile over the groups that windowed reports. The
// shared host has slow spells of seconds to a minute that inflate every
// call they cover, the tail most (a spell over the first nine seconds of
// a stream-w1024 run raised its group tails by up to 1.9x and its group
// medians by up to 1.3x). A median over the groups moves once a spell
// covers half of them; the lower quartile moves only once it covers more
// than three quarters, while a change in the program moves every group.
const groupQ = 0.25

// windowed summarizes xs (in time order) group by group and returns the
// lower quartile (groupQ) over the groups of each group's median and
// tail, with the group count and each group's tail quantile.
func windowed(xs []float64) (dist, int) {
	groups := len(xs) / minGroup
	if groups > maxGroups {
		groups = maxGroups
	}
	if groups < 2 {
		return summarize(xs), 1
	}
	var p50s, tails []float64
	var q float64
	for g := 0; g < groups; g++ {
		d := summarize(xs[g*len(xs)/groups : (g+1)*len(xs)/groups])
		p50s, tails, q = append(p50s, d.P50), append(tails, d.Tail), d.TailQ
	}
	return dist{N: len(xs), P50: quantile(p50s, groupQ), Tail: quantile(tails, groupQ), TailQ: q}, groups
}

// windowedRate splits [start, end] into equal time windows and returns
// the upper quartile over them of the work completed per second, work[i]
// units having completed at at[i].
func windowedRate(start, end time.Time, at []time.Time, work []float64) float64 {
	span := end.Sub(start) / windows
	if span <= 0 {
		return 0
	}
	per := make([]float64, windows)
	for i, t := range at {
		w := int(t.Sub(start) / span)
		if w >= windows {
			w = windows - 1
		}
		per[w] += work[i]
	}
	for i := range per {
		per[i] /= span.Seconds()
	}
	return quantile(per, rateQ)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// prf pools true positives, false positives and false negatives over
// many series so the F-score weighs every ground-truth point equally.
type prf struct{ tp, fp, fn int }

func (p *prf) add(tp, fp, fn int) { p.tp += tp; p.fp += fp; p.fn += fn }

func (p prf) f1() float64 {
	if 2*p.tp+p.fp+p.fn == 0 {
		return 0
	}
	return 2 * float64(p.tp) / float64(2*p.tp+p.fp+p.fn)
}

var inf = math.Inf(1)
