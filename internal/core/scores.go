package core

import (
	"context"
	"math"
	"runtime"
	"sync"
	"time"

	"cabd/internal/inn"
	"cabd/internal/obs"
	"cabd/internal/sax"
	"cabd/internal/stats"
)

// scorer computes the score metric β (Algorithm 3) for candidates of one
// series of d equal-length channels. A univariate series is scored on its
// raw values: every score — SAX words (standardized per window), the
// variance ratio, the INN-derived sizes — is invariant under the affine
// standardization of Equation 2, so only the Computer (which measures
// distances in the standardized embedding) sees standardized data. The
// multivariate extension passes its standardized channels, so that the
// total variance and the cross-channel correlation weigh every channel
// alike.
type scorer struct {
	opts     Options
	chans    [][]float64 // the d channels, index-aligned
	comp     *inn.Computer
	tlim     int                    // pruned search range
	corpus   map[corpusKey][]string // sliding SAX words per channel and window length
	corpusMu sync.Mutex

	// resolved is the neighborhood strategy scoring actually ran with.
	// scoreAll fixes it BEFORE the worker pool starts — the deadline
	// pilot's downgrade decision must never mutate shared option state
	// while workers are reading it — and run() reports it on the Result.
	resolved Strategy

	// feats is the flat SoA feature matrix the scoreAll workers fill
	// index-aligned with the candidate slice (worker scoring candidate i
	// writes only row i). The classifier trains and batch-infers over
	// these columns; Candidate.features stays as the row-major oracle.
	feats *featMatrix

	// freq, when set, answers word-frequency lookups instead of the
	// sliding-corpus cache — the streaming engine's rolling corpus hook
	// (core.Env.Frequency). It must be safe for concurrent use: scoreAll
	// workers call it in parallel.
	freq func(wlen int, word string) float64

	// clk times the deadline pilot. It comes from the run's obs recorder
	// (obs.Wall when none is installed), so a FakeClock recorder makes
	// the degradation trigger fully deterministic in tests.
	clk obs.Clock

	// forceDegrade makes the deadline pilot always downgrade, regardless
	// of the timing projection — a deterministic hook for the
	// feature-consistency tests (never set in production paths).
	forceDegrade bool
}

// corpusKey addresses the sliding-word cache: a corpus belongs to one
// channel at one window length.
type corpusKey struct{ ch, wlen int }

func newScorer(chans [][]float64, comp *inn.Computer, opts Options) *scorer {
	return &scorer{
		opts: opts,
		// Candidates in one series grow overlapping neighborhoods, and a
		// pair's reverse probe is a later candidate's forward probe, so
		// all scoreAll workers share one bounded rank memo.
		comp:     comp.WithRankMemo(0),
		chans:    chans,
		tlim:     comp.RangeLimit(opts.RangeFrac),
		corpus:   make(map[corpusKey][]string),
		clk:      opts.Obs.Clock(),
		resolved: opts.Strategy,
	}
}

// memoStats reports the shared rank memo's cumulative hit/miss counts
// for the observability layer.
func (sc *scorer) memoStats() (hits, misses int64) {
	return sc.comp.MemoStats()
}

// neighborhood returns the INN (or KNN) members of index i under
// strategy. The strategy travels as an argument, not scorer state, so
// the deadline pilot's downgrade can never race the worker pool.
func (sc *scorer) neighborhood(i int, strategy Strategy) []int {
	switch strategy {
	case LinearINN:
		return sc.comp.Minimal(i, sc.tlim)
	case MutualSetINN:
		return sc.comp.MutualSet(i, sc.tlim)
	case FixedKNN:
		return sc.comp.KNN(i, sc.opts.KNNK)
	default:
		return sc.comp.Binary(i, sc.tlim)
	}
}

// hull returns the contiguous index span [lo, hi] covering i and its
// neighborhood (the "pattern" P the correlation and variance scores
// operate on).
func hull(i int, nb []int) (lo, hi int) {
	lo, hi = i, i
	for _, j := range nb {
		if j < lo {
			lo = j
		}
		if j > hi {
			hi = j
		}
	}
	return lo, hi
}

// score fills in the three INN scores of candidate c (Definitions 5, 8,
// 9; see DESIGN.md for the interpretation notes), plus the cross-channel
// decorrelation when there are two or more channels. It runs once per
// candidate inside the scoreAll worker pool and must not allocate: the
// variance score views the pattern's flanks through stats.Variance2
// instead of materializing the cut window.
//
//cabd:hotpath
func (sc *scorer) score(c *Candidate, strategy Strategy) {
	n := len(sc.chans[0])
	c.INN = sc.neighborhood(c.Index, strategy)
	ss := len(c.INN)

	// Magnitude score (Definition 5): INN size over dataset size.
	c.Magnitude = float64(ss) / float64(n)

	lo, hi := hull(c.Index, c.INN)
	c.LeftExtent = c.Index - lo
	c.RightExtent = hi - c.Index
	if ext := c.LeftExtent + c.RightExtent; ext > 0 {
		c.Asymmetry = float64(absInt(c.RightExtent-c.LeftExtent)) / float64(ext)
	}

	// Correlation score (Definition 8): frequency of the pattern's SAX
	// word among all same-length windows of the candidate's channel. The
	// window is centered on the candidate with a half-width tied to the
	// pattern size (clamped to [3, 12]): centering guarantees the word
	// captures the local shape transition — spike, group boundary or
	// level shift — rather than only the flat interior of a large
	// one-sided hull.
	hw := ss
	if hw < 3 {
		hw = 3
	}
	if hw > 12 {
		hw = 12
	}
	wlo, whi := c.Index-hw, c.Index+hw+1
	if wlo < 0 {
		wlo = 0
	}
	if whi > n {
		whi = n
	}
	wlen := whi - wlo
	if wlen >= 2 && wlen <= n/2 {
		word := sax.Word(sc.chans[c.Channel][wlo:whi], sc.opts.SAXSegments, sc.opts.SAXAlphabet)
		if sc.freq != nil {
			c.Correlation = sc.freq(wlen, word)
		} else {
			c.Correlation = sax.Frequency(sc.corpusFor(c.Channel, wlen), word)
		}
	} else {
		// Degenerate or series-scale windows occur everywhere.
		c.Correlation = 1
	}

	// Variance score (Definition 9, oriented as in hypothesis 3 and
	// Fig. 3): the relative drop of the SPa standard deviation when the
	// pattern is removed. SPa is the pattern extended by max(SS, 3)
	// adjacent points on each side. Over d channels the deviation is the
	// total one, sqrt(Σ_k Var_k / d); for d = 1 that is the plain
	// deviation bit for bit (x/1 is exact).
	pad := ss
	if pad < 3 {
		pad = 3
	}
	slo, shi := lo-pad, hi+pad+1
	if slo < 0 {
		slo = 0
	}
	if shi > n {
		shi = n
	}
	var all, rest float64
	for _, v := range sc.chans {
		all += stats.Variance(v[slo:shi])
		rest += stats.Variance2(v[slo:lo], v[hi+1:shi])
	}
	d := float64(len(sc.chans))
	sdAll := math.Sqrt(all / d)
	if sdAll == 0 || (lo-slo)+(shi-hi-1) < 2 {
		c.Variance = 0
	} else {
		vs := 1 - math.Sqrt(rest/d)/sdAll
		// The clamp lets a NaN through (both comparisons are false).
		// None arises from sanitized input — finite values bounded by
		// sanitize.DefaultMaxAbs keep both deviations finite, and sdAll
		// is nonzero here — and the forest requires NaN-free features.
		if vs < 0 {
			vs = 0
		}
		if vs > 1 {
			vs = 1
		}
		c.Variance = vs
	}

	if len(sc.chans) >= 2 {
		c.XCorr = sc.xcorr(c.Index, ss)
	}
}

// xcorr is the cross-channel decorrelation score at index: over a window
// sized by the neighborhood (half-width clamped to [8, 32]), (1 - mean
// pairwise channel correlation)/2 in [0, 1]. Broken co-movement — one
// channel deviating from an otherwise correlated group — scores high.
func (sc *scorer) xcorr(index, ss int) float64 {
	n := len(sc.chans[0])
	hw := ss
	if hw < 8 {
		hw = 8
	}
	if hw > 32 {
		hw = 32
	}
	lo, hi := index-hw, index+hw+1
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if hi-lo < 4 {
		return 0
	}
	var sum float64
	var pairs int
	for a := 0; a < len(sc.chans); a++ {
		for b := a + 1; b < len(sc.chans); b++ {
			r := stats.Correlation(sc.chans[a][lo:hi], sc.chans[b][lo:hi])
			if math.IsNaN(r) {
				r = 0 // a constant window has no co-movement signal
			}
			sum += r
			pairs++
		}
	}
	x := (1 - sum/float64(pairs)) / 2
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	return x
}

// corpusFor returns the sliding SAX words of channel ch at window length
// w, cached per (channel, length). Candidates in the same series often
// share pattern sizes, so the cache hit rate is high.
func (sc *scorer) corpusFor(ch, w int) []string {
	key := corpusKey{ch, w}
	sc.corpusMu.Lock()
	defer sc.corpusMu.Unlock()
	if words, ok := sc.corpus[key]; ok {
		return words
	}
	words := sax.SlidingWords(sc.chans[ch], w, sc.opts.SAXSegments, sc.opts.SAXAlphabet)
	sc.corpus[key] = words
	return words
}

// scoreAll computes the metric for every candidate in parallel (the
// paper's Algorithm 3 computes the scores concurrently), checking ctx
// between candidates so cancellation propagates promptly.
//
// Graceful degradation 2: when ctx carries a deadline, a small pilot
// batch is scored first with the configured strategy and its measured
// per-candidate cost projected over the rest; if the projection eats
// more than half the remaining budget, scoring downgrades to the cheap
// FixedKNN neighborhood for the remaining candidates. The return value
// reports whether that happened.
func (sc *scorer) scoreAll(ctx context.Context, cands []Candidate) (degraded bool, err error) {
	sc.resolved = sc.opts.Strategy
	if len(cands) == 0 {
		return false, nil
	}
	sc.feats = getFeatMatrix(len(cands), featWidth(len(sc.chans)))
	workers := runtime.GOMAXPROCS(0)
	if sc.opts.SeqOracle {
		workers = 1
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	// strategy is resolved completely — pilot measurement, downgrade
	// decision, pilot re-score — before the worker pool starts. Workers
	// receive the final value; nothing they read is written afterwards.
	strategy := sc.opts.Strategy
	start := 0
	if deadline, ok := ctx.Deadline(); ok && strategy != FixedKNN {
		pilot := 4
		if pilot > len(cands) {
			pilot = len(cands)
		}
		t0 := sc.clk.Now()
		for i := 0; i < pilot; i++ {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			sc.score(&cands[i], strategy)
			sc.feats.fill(i, &cands[i], &sc.opts)
		}
		per := sc.clk.Now().Sub(t0) / time.Duration(pilot)
		rounds := (len(cands) - pilot + workers - 1) / workers
		start = pilot
		if projected := per * time.Duration(rounds); projected > deadline.Sub(sc.clk.Now())/2 || sc.forceDegrade {
			strategy = FixedKNN
			degraded = true
			// Re-score the pilot batch under the degraded strategy:
			// keeping its Binary-INN features would hand the classifier a
			// training set with mixed neighborhood semantics (the pilot's
			// Magnitude/extents mean something different from everyone
			// else's), skewing both the hypothesis bootstrap and the
			// confidence weights.
			start = 0
		}
	}
	sc.resolved = strategy
	var wg sync.WaitGroup
	ch := make(chan int, len(cands)-start)
	for i := start; i < len(cands); i++ {
		ch <- i
	}
	close(ch)
	var cancelled sync.Once
	var ctxErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				if e := ctx.Err(); e != nil {
					cancelled.Do(func() { ctxErr = e })
					return
				}
				sc.score(&cands[i], strategy)
				sc.feats.fill(i, &cands[i], &sc.opts)
			}
		}()
	}
	wg.Wait()
	return degraded, ctxErr
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
