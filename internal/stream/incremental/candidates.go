// candidates.go reproduces core's candidate estimation from the rolling
// Δ″ treap: median and MAD by order-statistic selection, threshold
// selection by binary search over the two deviation-sorted runs, and the
// flood fallback by descending-rank traversal. Every float expression
// mirrors the batch path (stats.RobustZ, core.topDeviations) exactly, so
// the selected set and the parallel z-scores are bit-identical to a full
// recomputation over the window — at O(log² w + k log w) cost instead of
// O(w log w).
package incremental

import (
	"math"
	"sort"

	"cabd/internal/core"
)

// candidates returns the candidates (window index and robust z-score) of
// the live window [start, start+n), in index order.
func (e *Engine) candidates(start, n int) []core.Candidate {
	if n == 0 {
		return nil
	}
	t := e.d2
	med := t.Median()
	mad := t.MAD(med)

	// rzOf mirrors the stats.RobustZ per-element expression. It is
	// monotone nondecreasing in |v - med| (division by a positive
	// constant, and the mad==0 step function), which is what licenses the
	// binary searches below.
	rzOf := func(v float64) float64 {
		d := math.Abs(v - med)
		switch {
		case mad > 0:
			return d / mad
		case d == 0:
			return 0
		default:
			return math.Inf(1)
		}
	}
	z := e.cfg.CandidateZ

	// Sorted by value, the entries below-or-at the median (walking away
	// from it) and above it form two runs of nondecreasing deviation; the
	// candidates are a suffix of each run.
	cntLE := t.CountLEValue(med)
	lenA, lenB := cntLE, n-cntLE
	firstA := sort.Search(lenA, func(i int) bool {
		return rzOf(t.KthVal(cntLE-1-i)) > z
	})
	firstB := sort.Search(lenB, func(i int) bool {
		return rzOf(t.KthVal(cntLE+i)) > z
	})
	count := (lenA - firstA) + (lenB - firstB)
	if count == 0 {
		return nil
	}

	type sel struct {
		wi int
		v  float64
	}
	var picks []sel
	if count > n/4 {
		// Flood fallback (MAD collapse): the top n/4 Δ″ by (value
		// descending, index ascending) — the treap's descending-rank
		// order — exactly core.topDeviations' selection.
		k := n / 4
		if k < 1 {
			k = 1
		}
		picks = make([]sel, 0, k)
		t.DescendRanks(func(v float64, g int64) bool {
			picks = append(picks, sel{int(g) - start, v})
			return len(picks) < k
		})
	} else {
		picks = make([]sel, 0, count)
		for r := 0; r < cntLE-firstA; r++ {
			v, g := t.Kth(r)
			picks = append(picks, sel{int(g) - start, v})
		}
		for r := cntLE + firstB; r < n; r++ {
			v, g := t.Kth(r)
			picks = append(picks, sel{int(g) - start, v})
		}
	}
	sort.Slice(picks, func(a, b int) bool { return picks[a].wi < picks[b].wi })
	cands := make([]core.Candidate, len(picks))
	for i, p := range picks {
		cands[i] = core.Candidate{Index: p.wi, SecondDiffZ: rzOf(p.v)}
	}
	return cands
}
