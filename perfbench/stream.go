package main

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"cabd"
	"cabd/httpapi"
	"cabd/internal/eval"
	"cabd/internal/series"
	"cabd/internal/synth"
)

// stream-w1024 shape: eight tenant-scoped streams at the server's
// default window (1024) and hop (window/8 = 128), so every chunk after
// the window fills completes exactly one hop. Rates are chunks per
// second over all streams. Latency is read at the nominal rate, well
// inside capacity (two lanes of 6-10 ms hops carry 200-300/s, and as
// little as ~100/s while the shared host runs slow); capacity is what
// two closed-loop lanes complete per second, with corpus room for
// streamCapMax chunks per second. Lane k%2 sends call k, so each
// stream's chunks stay on one lane and arrive in order.
const (
	streamRate   = 48
	streamCapMax = 600
	streamCount  = 8
	streamWindow = 1024
	streamChunk  = 128
	streamLanes  = 2
)

// streamCorpus holds one long labeled series per stream and every
// chunk's NDJSON body.
type streamCorpus struct {
	ids    []string
	series []*series.Series
	chunks [][][]byte // chunks[stream][j]
}

func newStreamCorpus(seed int64, chunksPerStream int) streamCorpus {
	var c streamCorpus
	for i := 0; i < streamCount; i++ {
		s := synth.YahooLike(seed*1000+int64(i), chunksPerStream*streamChunk)
		c.ids = append(c.ids, fmt.Sprintf("tenant-%d/sensor-%d", i, seed))
		c.series = append(c.series, s)
		var chunks [][]byte
		for j := 0; j < chunksPerStream; j++ {
			var b strings.Builder
			for _, v := range s.Values[j*streamChunk : (j+1)*streamChunk] {
				b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
				b.WriteByte('\n')
			}
			chunks = append(chunks, []byte(b.String()))
		}
		c.chunks = append(c.chunks, chunks)
	}
	return c
}

// fillChunks is how many chunks fill a window.
const fillChunks = streamWindow / streamChunk

func runStream(ctx context.Context, e env) (*outcome, error) {
	out := newOutcome()
	plan := planLoad(streamRate, streamCapMax, e.dur, e.trace)
	total := plan.calls()
	perStream := fillChunks + (total+streamCount-1)/streamCount
	c := newStreamCorpus(e.seed, perStream)

	// Emitted detections per stream, in arrival order, over the whole
	// life of the measured server's streams.
	emitted := make([][]httpapi.Detection, streamCount)
	push := func(ctx context.Context, srv *child, s, j int) (int, error) {
		var r httpapi.StreamIngestResponse
		if err := srv.call(ctx, http.MethodPost, "/v1/stream/"+url.PathEscape(c.ids[s]), c.chunks[s][j], &r); err != nil {
			return 0, err
		}
		if r.Accepted != streamChunk {
			return 0, fmt.Errorf("stream %s accepted %d of %d points", c.ids[s], r.Accepted, streamChunk)
		}
		emitted[s] = append(emitted[s], r.Detections...)
		return len(r.Detections), nil
	}

	// Set-up: process start until every stream's window is full; the
	// last server set up takes the load. Two goroutines fill four
	// streams each, in chunk order.
	srv, setup, err := medianSetup(setups, func(i int) (*child, time.Duration, error) {
		t0 := e.clk.Now()
		s, err := startServer(ctx, e.serveBin, e.workDir, i)
		if err != nil {
			return nil, 0, err
		}
		for k := range emitted {
			emitted[k] = nil
		}
		errs := make(chan error, streamLanes)
		for l := 0; l < streamLanes; l++ {
			go func(l int) {
				for j := 0; j < fillChunks; j++ {
					for st := l; st < streamCount; st += streamLanes {
						if _, err := push(ctx, s, st, j); err != nil {
							errs <- err
							return
						}
					}
				}
				errs <- nil
			}(l)
		}
		var ferr error
		for l := 0; l < streamLanes; l++ {
			if err := <-errs; err != nil {
				ferr = err
			}
		}
		if ferr != nil {
			s.stop()
			return nil, 0, ferr
		}
		return s, e.clk.Now().Sub(t0), nil
	}, func(s *child) { s.stop() })
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	out.e2e["setup_s"], out.named["setup_s"] = setup, setup

	// Call k pushes chunk fillChunks + k/8 of stream k%8.
	dets := make([]int, total) // detections each call's reply carried
	call := func(ctx context.Context, k int) (err error) {
		dets[k], err = push(ctx, srv, k%streamCount, fillChunks+k/streamCount)
		return err
	}
	steps, sv, rss, err := driveLoad(ctx, e, srv, plan, streamLanes, call)
	if err != nil {
		return nil, err
	}

	// Outputs: each stream's emitted detections must equal an offline
	// full-rerun StreamDetector fed the same values.
	pushed := make([]int, streamCount) // points each stream received
	for s := range pushed {
		pushed[s] = fillChunks * streamChunk
	}
	for _, st := range steps {
		for _, x := range st.Samples {
			out.attempted++
			if x.Err != nil || x.Done.IsZero() {
				out.fail("stream-w1024: push failed: %v", x.Err)
			}
			pushed[x.K%streamCount] += streamChunk
		}
	}
	var p prf
	for s := 0; s < streamCount; s++ {
		m := eval.Match(wireIndices(emitted[s]), truthBelow(c.series[s], pushed[s]), matchTol)
		p.add(m.TP, m.FP, m.FN)
	}
	pushFailed := out.failed > 0
	parallelCheck(streamCount, func(s int) string {
		if pushFailed {
			return "" // the stream's values are not known exactly
		}
		det := cabd.NewStream(cabd.StreamConfig{Engine: cabd.StreamEngineFull})
		var want []cabd.StreamDetection
		for _, v := range c.series[s].Values[:pushed[s]] {
			want = append(want, det.Push(v)...)
		}
		if d := diffStream(want, emitted[s]); d != "" {
			return fmt.Sprintf("stream-w1024: stream %s differs from the offline full-rerun detector: %s", c.ids[s], d)
		}
		return ""
	}, out)

	nominal := steps[0]
	if e.trace {
		nominal = steps[1]
	}
	lat, groups := windowed(nominal.latencies())
	late := summarize(nominal.lateMS())
	f := p.f1()
	out.e2e["latency_p50_ms"], out.named["latency_p50_ms"] = lat.P50, lat.P50
	out.e2e["latency_p99_ms"], out.named["latency_p99_ms"] = lat.Tail, lat.Tail
	out.e2e["f1"], out.named["f1"] = f, f
	out.e2e["peak_rss_mb"], out.named["peak_rss_mb"] = rss, rss
	out.notes = append(out.notes, fmt.Sprintf("nominal %.0f pts/s (%.0f hop pushes/s): latency per push from due time, lower quartile over %d groups of p50 and p%.1f, %d pushes; generator late p50 %.3f ms, tail %.3f ms",
		nominal.Rate*streamChunk, nominal.Rate, groups, 100*lat.TailQ, lat.N, late.P50, late.Tail))
	out.notes = append(out.notes, stepNotes(steps, streamChunk)...)
	out.notes = append(out.notes, rssNote(srv.pid()))
	if e.trace {
		streamLayers(out, steps, dets[plan.rungs[0].N:], sv)
		return out, nil
	}
	capacity := steps[1].completedPerSec() * streamChunk
	out.e2e["throughput_per_s"], out.named["sustained_pts_per_s"] = capacity, capacity
	return out, nil
}

// truthBelow is a series' labeled anomaly positions below n.
func truthBelow(s *series.Series, n int) []int {
	var out []int
	for _, i := range s.AnomalyIndices() {
		if i < n {
			out = append(out, i)
		}
	}
	return out
}

func diffStream(want []cabd.StreamDetection, got []httpapi.Detection) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d detections, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		//cabd:lint-ignore floateq the wire must carry the oracle's confidence bit for bit
		if g.Index != w.Index || g.Subtype != w.Subtype.String() || g.Confidence != w.Confidence || g.Degraded != w.Degraded {
			return fmt.Sprintf("detection %d is %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// streamLayers fills the stream-w1024 per-layer metrics from the traced
// leg (steps[1]) and the server's /metrics delta over it.
func streamLayers(out *outcome, steps []step, tracedDets []int, sv serverView) {
	traced := steps[1:]
	out.tr = newTracer(steps[1].Samples[0].Due)
	for _, x := range steps[1].Samples {
		k := x.K
		id := out.tr.add("stream_push", 0, fmt.Sprintf("stream-%d/chunk-%d", k%streamCount, fillChunks+k/streamCount), x.Sent, x.Done, nil)
		out.tr.add("gen_late", id, "", x.Due, x.Sent, nil)
	}
	attr, err := attribute(windowOps(traced, sv.d))
	if err != nil {
		out.problems = append(out.problems, err.Error())
	}
	out.attr = attr
	fillStageLayers(out, attr)
	clientLayers(out, traced)
	hops := float64(len(steps[1].Samples))
	serverLayers(out, sv, hops)
	out.layers["stream.hops"] = hops
	emitted := 0
	for _, n := range tracedDets {
		emitted += n
	}
	out.layers["stream.emitted"] = float64(emitted)
	out.layers["trace.overhead_ms"] = summarize(steps[1].latencies()).P50 - summarize(steps[0].latencies()).P50
}
