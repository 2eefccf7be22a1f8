// Package incremental maintains the CABD pipeline's per-window state
// across stream slides, so each hop's analysis costs O(touched) instead
// of rebuilding every stage from the full window.
//
// The batch pipeline recomputes four substrates per window: the Δ″ order
// statistics behind candidate estimation, the KD-tree behind INN rank
// probes, the sliding SAX word corpus behind the correlation score, and
// the per-candidate feature scores. The engine maintains the first three
// incrementally — an order-statistic treap over Δ″ (O(log w) per point),
// a bucketed sliding KD-tree (O(log w) amortized per point, queried
// through the current window's standardization frame), and a rolling
// word corpus (O(hop) words per analysis) — and hands them to the shared
// detector core through core.Env. Scoring and classification then run
// the unmodified batch code over them.
//
// # Exactness
//
// The engine is not approximately right — it emits bit-identical results
// to a full rerun, by construction:
//
//   - Candidate estimation is affine-invariant, so the batch path runs it
//     on raw values (see core.candidateIndices); raw Δ″ values never
//     change once computed, and the treap reproduces stats.Median /
//     stats.MAD / stats.RobustZ selection exactly.
//   - SAX words standardize per word window, so a word depends only on
//     its own raw span; the rolling corpus stores the identical words.
//   - Rank counts and k-NN sets are functions of the point set and the
//     metric, not the tree shape; the sliding tree transforms raw points
//     through the exact stats.Standardize expression, so every probe
//     answers as a fresh tree over the standardized window would.
//
// Only the per-hop (μ, σ) embedding frame genuinely changes with the
// window — which is why neighborhoods and rank memos are scoped to one
// analysis (as in the batch path) rather than carried across hops.
package incremental

import (
	"sync"

	"cabd/internal/core"
	"cabd/internal/inn"
	"cabd/internal/kdtree"
	"cabd/internal/stats"
)

// Config parameterizes an engine. Values must match the resolved
// detector options of the stream the engine serves (core.Detector.Options
// after defaults), or the substrates will answer for a different
// pipeline than the one consuming them.
type Config struct {
	// CandidateZ is the robust z threshold of candidate estimation.
	CandidateZ float64
	// SAXSegments / SAXAlphabet parameterize correlation-score words.
	SAXSegments int
	SAXAlphabet int
	// Seed drives the treap priorities (tree shape only; results are
	// shape-independent).
	Seed int64
}

// FromOptions derives the engine config from resolved detector options.
func FromOptions(o core.Options) Config {
	return Config{
		CandidateZ:  o.CandidateZ,
		SAXSegments: o.SAXSegments,
		SAXAlphabet: o.SAXAlphabet,
		Seed:        o.Seed,
	}
}

// Engine is the incremental pipeline state of one stream. Not safe for
// concurrent use, except that the Env hooks returned by BuildEnv may be
// called from concurrent scorer workers (the engine serializes corpus
// mutation internally; the treap and tree are read-only during an
// analysis).
type Engine struct {
	cfg Config

	tree *kdtree.Sliding
	d2   *orderTreap

	// d2vals holds the true Δ″ value of each global index in
	// [d2Head, end), head-indexed — Remove needs the exact stored value
	// when an index expires.
	d2vals  []float64
	d2Head  int
	d2First int // global index d2vals[d2Head] refers to

	corpus   map[int]*lenCorpus
	corpusMu sync.Mutex
	analyses int
	segments int
	alphabet int

	start int // window start (global index of the first live value)
	end   int // one past the newest observed global index
	seen  int // observations fed so far (2 needed before Δ″ exists)

	prevVal float64 // newest value
	prevD1  float64 // newest first difference |x_g - x_{g-1}|

	idxCache []float64 // cached 0..n-1 slice for the position frame
}

// New returns an empty engine.
func New(cfg Config) *Engine {
	return &Engine{
		cfg:      cfg,
		tree:     kdtree.NewSliding(),
		d2:       newOrderTreap(cfg.Seed ^ 0x5eed),
		corpus:   make(map[int]*lenCorpus),
		segments: cfg.SAXSegments,
		alphabet: cfg.SAXAlphabet,
	}
}

// Observe feeds the accepted observation with global index g (indices
// must be consecutive; the stream wrapper assigns one per accepted
// observation).
func (e *Engine) Observe(g int, v float64) {
	e.tree.Push(int64(g), v)
	switch e.seen {
	case 0:
		e.start = g
		// SecondDiff forces the window's first two elements to zero; the
		// two sentinel entries track the current window start (SlideTo
		// moves them).
		e.d2.Insert(0, int64(g))
	case 1:
		e.d2.Insert(0, int64(g))
		e.prevD1 = absDiff(v, e.prevVal)
	default:
		d1 := absDiff(v, e.prevVal)
		d2 := absDiff(d1, e.prevD1)
		e.d2.Insert(d2, int64(g))
		if len(e.d2vals) == e.d2Head {
			e.d2First = g
		}
		e.d2vals = append(e.d2vals, d2)
		e.prevD1 = d1
	}
	e.prevVal = v
	e.seen++
	e.end = g + 1
}

// absDiff mirrors the exact expression of series.FirstDiff/SecondDiff.
func absDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		return -d
	}
	return d
}

// SlideTo advances the window start: values with global index < start
// have been evicted by the stream buffer. The two zero sentinels move to
// the new start, and the true Δ″ entries of indices entering the
// sentinel zone leave the multiset — exactly the SecondDiff of the new
// window.
//
//cabd:hotpath
func (e *Engine) SlideTo(start int) {
	if start <= e.start {
		return
	}
	for s := e.start; s < start; s++ {
		e.d2.Remove(0, int64(s))
		e.d2.Insert(0, int64(s+2))
		// The index s+2 just became a forced zero; retire its true Δ″.
		if e.d2First+(len(e.d2vals)-e.d2Head) > s+2 && e.d2First <= s+2 {
			off := e.d2Head + (s + 2 - e.d2First)
			e.d2.Remove(e.d2vals[off], int64(s+2))
		}
	}
	// Drop the value backing store for expired sentinel-zone indices.
	for e.d2Head < len(e.d2vals) && e.d2First < start+2 {
		e.d2Head++
		e.d2First++
	}
	if e.d2Head > 0 && e.d2Head >= len(e.d2vals)/2 {
		e.d2vals = append(e.d2vals[:0], e.d2vals[e.d2Head:]...)
		e.d2Head = 0
	}
	e.start = start
	e.tree.EvictBefore(int64(start))
}

// BuildEnv assembles the core.Env for one analysis over the live window.
// buf must be the window values (global indices [start, start+len(buf)))
// and must stay unmodified until the analysis completes — the hooks
// capture it. The caller runs Detector.DetectEnvCtx with the result.
func (e *Engine) BuildEnv(buf []float64, start int) *core.Env {
	n := len(buf)
	if start != e.start || start+n != e.end {
		panic("incremental: BuildEnv window out of sync with engine state")
	}
	if got := e.d2.Len(); got != n {
		panic("incremental: Δ″ multiset out of sync with window")
	}
	e.analyses++
	e.tree.Flush()
	e.sweepCorpus()

	// The standardization frame of this analysis: positions 0..n-1 and
	// the window values, via the same stats helpers Standardize uses, so
	// the sliding tree's on-the-fly transform lands on identical bits.
	idx := e.idxSlice(n)
	f := kdtree.Frame{
		Start:   int64(start),
		MeanPos: stats.Mean(idx), StdPos: stats.Std(idx),
		MeanVal: stats.Mean(buf), StdVal: stats.Std(buf),
	}
	si := stats.Standardize(idx)
	sv := stats.Standardize(buf)
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{si[i], sv[i]}
	}
	comp := inn.NewComputerOver(&slidingIndex{
		tree: e.tree, f: f, pts: pts, start: int64(start),
	})
	return &core.Env{
		Candidates: func() []core.Candidate { return e.candidates(start, n) },
		Computer:   comp,
		Frequency: func(wlen int, word string) float64 {
			return e.frequency(buf, start, wlen, word)
		},
	}
}

func (e *Engine) idxSlice(n int) []float64 {
	if len(e.idxCache) != n {
		e.idxCache = make([]float64, n)
		for i := range e.idxCache {
			e.idxCache[i] = float64(i)
		}
	}
	return e.idxCache
}

// slidingIndex adapts the sliding tree + frame to inn.Index. Query
// coordinates come from the precomputed standardized embedding (the
// identical bits the batch path would feed kdtree.New), tie and skip
// identities travel as global indices.
type slidingIndex struct {
	tree  *kdtree.Sliding
	f     kdtree.Frame
	pts   [][2]float64
	start int64
}

func (s *slidingIndex) Len() int { return len(s.pts) }

func (s *slidingIndex) RankAtMost(i, j, limit int) int {
	d := kdtree.Dist(s.pts[i], s.pts[j])
	return s.tree.RankAtMost(s.f, s.pts[i], d, s.start+int64(j), s.start+int64(i), limit)
}

func (s *slidingIndex) KNNInto(i, k int, buf []kdtree.Neighbor) []kdtree.Neighbor {
	return s.tree.KNNInto(s.f, s.pts[i], k, s.start+int64(i), buf)
}
