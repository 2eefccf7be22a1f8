package main

import (
	"bytes"
	"testing"
	"time"
)

// The seed must change every generated input and nothing about the
// workload's shape: counts, lengths, rates and call layout stay fixed.
func TestSeedChangesInputsNotShape(t *testing.T) {
	t.Run("batch-long", func(t *testing.T) {
		a, b := newBatchCorpus(1), newBatchCorpus(2)
		if len(a.uni) != len(b.uni) || len(a.multi) != len(b.multi) {
			t.Fatalf("corpus sizes differ")
		}
		for i := range a.uni {
			if len(a.uni[i].Values) != batchN || len(b.uni[i].Values) != batchN {
				t.Fatalf("series %d length differs", i)
			}
			if equalFloats(a.uni[i].Values, b.uni[i].Values) {
				t.Fatalf("series %d identical across seeds", i)
			}
		}
		for i := range a.multi {
			if len(a.multi[i]) != multiD || len(a.multi[i][0]) != multiN || len(b.multi[i][0]) != multiN {
				t.Fatalf("multivariate set %d shape differs", i)
			}
			if equalFloats(a.multi[i][0], b.multi[i][0]) {
				t.Fatalf("multivariate set %d identical across seeds", i)
			}
		}
		for k := 0; k < 16; k++ {
			ua, ma, ia := a.call(k)
			ub, mb, ib := b.call(k)
			if len(ua) != len(ub) || len(ma) != len(mb) || !equalInts(ia, ib) {
				t.Fatalf("call %d layout differs across seeds", k)
			}
		}
	})
	t.Run("serve-short", func(t *testing.T) {
		a, err := newServeCorpus(1, 8)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newServeCorpus(2, 8)
		if err != nil {
			t.Fatal(err)
		}
		for k := range a.series {
			if len(a.series[k].Values) != serveN || len(b.series[k].Values) != serveN {
				t.Fatalf("series %d length differs", k)
			}
			if bytes.Equal(a.bodies[k], b.bodies[k]) {
				t.Fatalf("request %d identical across seeds", k)
			}
		}
		if !equalFloats(a.series[0].Values, mustServe(t, 1).series[0].Values) {
			t.Fatalf("the same seed generated different inputs")
		}
	})
	t.Run("stream-w1024", func(t *testing.T) {
		a, b := newStreamCorpus(1, 12), newStreamCorpus(2, 12)
		for s := 0; s < streamCount; s++ {
			if len(a.chunks[s]) != 12 || len(b.chunks[s]) != 12 {
				t.Fatalf("stream %d chunk count differs", s)
			}
			if len(bytes.Split(bytes.TrimSpace(a.chunks[s][0]), []byte("\n"))) != streamChunk {
				t.Fatalf("stream %d chunk is not %d lines", s, streamChunk)
			}
			if bytes.Equal(a.chunks[s][0], b.chunks[s][0]) {
				t.Fatalf("stream %d identical across seeds", s)
			}
		}
	})
	t.Run("label-session", func(t *testing.T) {
		a, b := newLabelCorpus(1), newLabelCorpus(2)
		for i := range a {
			if len(a[i].Values) != labelN || len(b[i].Values) != labelN {
				t.Fatalf("series %d length differs", i)
			}
			if equalFloats(a[i].Values, b[i].Values) {
				t.Fatalf("series %d identical across seeds", i)
			}
		}
	})
	t.Run("load plans", func(t *testing.T) {
		for _, r := range []float64{serveRate, streamRate} {
			p := planLoad(r, 100, 20*time.Second, false)
			if len(p.rungs) != 1 || p.rungs[0] != rungOf(r, 15*time.Second) || p.capacity != 5*time.Second || p.capCalls != 500 {
				t.Fatalf("plan at %v/s: %+v", r, p)
			}
			tr := planLoad(r, 100, 20*time.Second, true)
			if len(tr.rungs) != 2 || tr.rungs[0] != tr.rungs[1] || tr.rungs[0].Rate != r || tr.capCalls != 0 {
				t.Fatalf("traced plan at %v/s: %+v", r, tr)
			}
		}
	})
}

func mustServe(t *testing.T, seed int64) serveCorpus {
	c, err := newServeCorpus(seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
