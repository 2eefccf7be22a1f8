package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cabd"
	"cabd/httpapi"
	"cabd/internal/eval"
	"cabd/internal/series"
	"cabd/internal/synth"
)

// serve-short shape. Latency is read at the nominal rate, well inside
// capacity (145-220/s on two shared cores, with the host's state);
// capacity is what two closed-loop lanes complete per second. The
// corpus leaves room for serveCapMax calls per second of the closed
// loop, far above what two lanes of ~5 ms calls can reach today.
const (
	serveRate   = 60
	serveCapMax = 1000
	serveN      = 512
	serveLanes  = 2
)

// serveCorpus holds distinct seeded series and their encoded requests.
type serveCorpus struct {
	series []*series.Series
	bodies [][]byte
}

func newServeCorpus(seed int64, n int) (serveCorpus, error) {
	c := serveCorpus{}
	for k := 0; k < n; k++ {
		s := seed*100000 + int64(k)
		var sr *series.Series
		if k%2 == 0 {
			sr = synth.YahooLike(s, serveN)
		} else {
			sr = synth.KPILike(s, serveN)
		}
		b, err := json.Marshal(httpapi.DetectRequest{Series: sr.Values})
		if err != nil {
			return c, err
		}
		c.series = append(c.series, sr)
		c.bodies = append(c.bodies, b)
	}
	return c, nil
}

// serveReply is one timed request's outcome.
type serveReply struct {
	status int
	body   []byte
	res    *httpapi.DetectResponse
}

func runServeShort(ctx context.Context, e env) (*outcome, error) {
	out := newOutcome()
	plan := planLoad(serveRate, serveCapMax, e.dur, e.trace)
	total := plan.calls()
	const warm = 4
	c, err := newServeCorpus(e.seed, total+warm*setups)
	if err != nil {
		return nil, err
	}

	// Set-up: process start until the server has answered its first
	// detections; the last server set up takes the load.
	srv, setup, err := medianSetup(setups, func(i int) (*child, time.Duration, error) {
		t0 := e.clk.Now()
		s, err := startServer(ctx, e.serveBin, e.workDir, i)
		if err != nil {
			return nil, 0, err
		}
		errs := make([]error, warm)
		var wg sync.WaitGroup
		for l := 0; l < warm; l++ {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				errs[l] = s.call(ctx, http.MethodPost, "/v1/detect", c.bodies[total+i*warm+l], nil)
			}(l)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			s.stop()
			return nil, 0, err
		}
		return s, e.clk.Now().Sub(t0), nil
	}, func(s *child) { s.stop() })
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	out.e2e["setup_s"], out.named["setup_s"] = setup, setup

	replies := make([]serveReply, total)
	call := func(ctx context.Context, k int) error {
		st, b, err := srv.do(ctx, http.MethodPost, "/v1/detect", c.bodies[k])
		replies[k] = serveReply{status: st, body: b}
		if err != nil {
			return err
		}
		if st != http.StatusOK {
			return fmt.Errorf("HTTP %d", st)
		}
		return nil
	}

	steps, sv, rss, err := driveLoad(ctx, e, srv, plan, serveLanes, call)
	if err != nil {
		return nil, err
	}

	// Outputs: every 200 reply must equal in-process Detect on the same
	// series.
	var sent []int
	for _, st := range steps {
		for _, x := range st.Samples {
			sent = append(sent, x.K)
		}
	}
	var p prf
	for _, k := range sent {
		out.attempted++
		r := &replies[k]
		if r.status != http.StatusOK {
			out.fail("serve-short: request %d: HTTP %d: %s", k, r.status, trim(r.body))
			continue
		}
		r.res = new(httpapi.DetectResponse)
		if err := json.Unmarshal(r.body, r.res); err != nil {
			out.fail("serve-short: request %d: %v", k, err)
			continue
		}
		m := eval.Match(wireIndices(r.res.Anomalies), c.series[k].AnomalyIndices(), matchTol)
		p.add(m.TP, m.FP, m.FN)
	}
	det := cabd.New(cabd.Options{})
	parallelCheck(len(sent), func(i int) string {
		k := sent[i]
		if replies[k].res == nil {
			return ""
		}
		if d := diffWire(det.Detect(c.series[k].Values), replies[k].res); d != "" {
			return fmt.Sprintf("serve-short: request %d differs from in-process Detect: %s", k, d)
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
	out.notes = append(out.notes, fmt.Sprintf("nominal %.0f/s: latency from due time, lower quartile over %d groups of p50 and p%.1f, %d calls; generator late p50 %.3f ms, tail %.3f ms",
		nominal.Rate, groups, 100*lat.TailQ, lat.N, late.P50, late.Tail))
	out.notes = append(out.notes, stepNotes(steps, 1)...)
	out.notes = append(out.notes, rssNote(srv.pid()))
	if e.trace {
		serveLayers(out, steps, replies, sv)
		return out, nil
	}
	capacity := steps[1].completedPerSec()
	out.e2e["throughput_per_s"], out.named["sustained_rps"] = capacity, capacity
	return out, nil
}

// stepNotes describes every step; unit scales the rates (points per
// call for streams).
func stepNotes(steps []step, unit float64) []string {
	var out []string
	for _, st := range steps {
		l := summarize(st.latencies())
		shape := fmt.Sprintf("open loop %.0f/s", st.Rate*unit)
		if st.Rate == 0 {
			shape = "closed loop"
		}
		out = append(out, fmt.Sprintf("%s: %d calls, p50 %.2f ms, tail(p%.1f) %.2f ms, completed %.1f/s",
			shape, len(st.Samples), l.P50, 100*l.TailQ, l.Tail, st.completedPerSec()*unit))
	}
	return out
}

func wireIndices(ds []httpapi.Detection) []int {
	out := make([]int, len(ds))
	for i, d := range ds {
		out[i] = d.Index
	}
	return out
}

// diffWire compares an in-process result with its wire form.
func diffWire(want *cabd.Result, got *httpapi.DetectResponse) string {
	if d := diffWireDetections(want.Anomalies, got.Anomalies); d != "" {
		return "anomalies: " + d
	}
	if d := diffWireDetections(want.ChangePoints, got.ChangePoints); d != "" {
		return "change points: " + d
	}
	if want.Queries != got.Queries {
		return fmt.Sprintf("queries %d, want %d", got.Queries, want.Queries)
	}
	return ""
}

func diffWireDetections(want []cabd.Detection, got []httpapi.Detection) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d detections, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		//cabd:lint-ignore floateq the wire must carry the oracle's confidence bit for bit
		if g.Index != w.Index || g.Subtype != w.Subtype.String() || g.Confidence != w.Confidence {
			return fmt.Sprintf("detection %d is %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// parallelDo runs f(k) for every k below n on two goroutines.
func parallelDo(n int, f func(k int)) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < n; k += 2 {
				f(k)
			}
		}(g)
	}
	wg.Wait()
}

// parallelCheck runs check(k) for every k below n on two goroutines and
// records each non-empty verdict as a failed operation.
func parallelCheck(n int, check func(k int) string, out *outcome) {
	verdicts := make([]string, n)
	parallelDo(n, func(k int) { verdicts[k] = check(k) })
	for _, v := range verdicts {
		if v != "" {
			out.fail("%s", v)
		}
	}
}

func trim(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
