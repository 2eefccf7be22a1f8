// Package incremental maintains the one pipeline substrate worth keeping
// across stream slides: the rolling SAX word corpus behind the
// correlation score.
//
// The batch pipeline rebuilds, per window and per pattern length, the
// words of every sliding window of the series — O(window · length) work
// per analysis that a stream hop repeats almost unchanged. The engine
// keeps those words and their counts per length, evicting the words
// whose spans slid out and appending the words whose spans completed,
// so a hop touches O(hop) words per length (see corpus.go). It hands the
// corpus to the shared detector core as core.Env.Frequency; candidates,
// the INN k-d tree, scoring and classification run the unmodified batch
// code over the window.
//
// # Exactness
//
// SAX words standardize per word window, so a word depends only on its
// own raw span: the rolling corpus stores the identical words a full
// rerun would build, and every frequency lookup answers with the same
// bits. The full rerun (stream.EngineFull) stays as the differential
// oracle.
package incremental

import (
	"sync"

	"cabd/internal/core"
)

// Config parameterizes an engine. Values must match the resolved
// detector options of the stream the engine serves (core.Detector.Options
// after defaults), or the corpus will answer for a different pipeline
// than the one consuming it.
type Config struct {
	// SAXSegments / SAXAlphabet parameterize correlation-score words.
	SAXSegments int
	SAXAlphabet int
}

// FromOptions derives the engine config from resolved detector options.
func FromOptions(o core.Options) Config {
	return Config{SAXSegments: o.SAXSegments, SAXAlphabet: o.SAXAlphabet}
}

// Engine is the rolling corpus state of one stream. Not safe for
// concurrent use, except that the Frequency hook returned by BuildEnv
// may be called from concurrent scorer workers (the engine serializes
// corpus mutation internally).
type Engine struct {
	cfg      Config
	corpus   map[int]*lenCorpus
	corpusMu sync.Mutex
	analyses int
}

// New returns an empty engine.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg, corpus: make(map[int]*lenCorpus)}
}

// BuildEnv assembles the core.Env for one analysis over the live window.
// buf must be the window values (global indices [start, start+len(buf)))
// and must stay unmodified until the analysis completes — the hook
// captures it. The caller runs Detector.DetectEnvCtx with the result.
func (e *Engine) BuildEnv(buf []float64, start int) *core.Env {
	e.analyses++
	e.sweepCorpus()
	return &core.Env{
		Frequency: func(wlen int, word string) float64 {
			return e.frequency(buf, start, wlen, word)
		},
	}
}
