// corpus.go maintains the rolling SAX word corpus: for every window
// length the correlation score has asked about, the words of all sliding
// windows of that length over the live values, with occurrence counts.
// A word depends only on the raw values of its own span (sax.Word
// standardizes per window), so words never need recomputation — the
// corpus evicts the words whose spans slid out and appends the words
// whose spans completed, touching O(hop) words per analysis where the
// batch path rebuilds all O(window · length) of them.
package incremental

import (
	"sort"

	"cabd/internal/sax"
)

// lenCorpus is the rolling corpus for one window length.
type lenCorpus struct {
	wlen    int
	startG  int      // global start index of words[head]
	head    int      // live words are words[head:]
	words   []string // word i covers values [startG+i-head, +wlen)
	counts  map[string]int
	lastUse int // engine analysis counter, for retention
}

// frequency returns the fraction of length-wlen value windows whose SAX
// word equals word — sax.Frequency over the batch SlidingWords corpus,
// answered from rolling counts. buf/start describe the live window; the
// engine's mutex serializes corpus mutation (scoreAll workers call this
// concurrently).
func (e *Engine) frequency(buf []float64, start, wlen int, word string) float64 {
	n := len(buf)
	total := n - wlen + 1
	if wlen <= 0 || total <= 0 {
		return 0
	}
	e.corpusMu.Lock()
	defer e.corpusMu.Unlock()
	lc := e.corpus[wlen]
	if lc == nil {
		lc = &lenCorpus{wlen: wlen, startG: start, counts: make(map[string]int)}
		e.corpus[wlen] = lc
	}
	lc.lastUse = e.analyses
	e.syncCorpus(lc, buf, start)
	return float64(lc.counts[word]) / float64(total)
}

// syncCorpus rolls lc forward to cover exactly the word spans inside
// [start, start+len(buf)).
func (e *Engine) syncCorpus(lc *lenCorpus, buf []float64, start int) {
	n := len(buf)
	lastStart := start + n - lc.wlen // last valid word start (inclusive)
	if lc.startG+len(lc.words)-lc.head <= start || lc.startG > lastStart+1 {
		// Fully stale (retained but unused across a long slide): reset.
		lc.head = 0
		lc.words = lc.words[:0]
		lc.startG = start
		clear(lc.counts)
	}
	// Evict words whose span lost its first value.
	for lc.startG < start && lc.head < len(lc.words) {
		w := lc.words[lc.head]
		lc.head++
		lc.startG++
		if c := lc.counts[w]; c <= 1 {
			delete(lc.counts, w)
		} else {
			lc.counts[w] = c - 1
		}
	}
	// Periodically compact the spent prefix so the slice stays O(window).
	if lc.head > 0 && lc.head >= len(lc.words)/2 {
		lc.words = append(lc.words[:0], lc.words[lc.head:]...)
		lc.head = 0
	}
	// Append words whose span completed.
	for g := lc.startG + (len(lc.words) - lc.head); g <= lastStart; g++ {
		w := sax.Word(buf[g-start:g-start+lc.wlen], e.cfg.SAXSegments, e.cfg.SAXAlphabet)
		lc.words = append(lc.words, w)
		lc.counts[w]++
	}
}

// sweepCorpus drops window lengths the scorer has not asked about for
// corpusRetention analyses (pattern sizes drift as the stream evolves;
// abandoned lengths must not accumulate).
func (e *Engine) sweepCorpus() {
	e.corpusMu.Lock()
	defer e.corpusMu.Unlock()
	var stale []int
	for wlen, lc := range e.corpus {
		if e.analyses-lc.lastUse > corpusRetention {
			stale = append(stale, wlen)
		}
	}
	sort.Ints(stale)
	for _, wlen := range stale {
		delete(e.corpus, wlen)
	}
}

const corpusRetention = 8
