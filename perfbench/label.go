package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"cabd"
	"cabd/httpapi"
	"cabd/internal/eval"
	"cabd/internal/series"
	"cabd/internal/synth"
)

// label-session shape: two labelers, each driving one session at a time
// over a cycle of seeded YahooLike series.
const (
	labelN        = 2000
	labelCorpus   = 128
	labelers      = 2
	labelPollEach = 4 * time.Millisecond // well below one AL round (~8 ms in-process)
	warmSeed      = 1 << 20              // seed of the set-up inputs, fixed across runs
)

// sessionRun is one completed (or failed) session as a labeler saw it.
type sessionRun struct {
	corpus      int
	id          string
	start, end  time.Time
	waits       []time.Duration // label posted → next query or result visible
	labels      int
	polls, hits int
	calls       []callRec
	final       *httpapi.SessionStatus
	err         error
}

// callRec is one HTTP call a labeler made.
type callRec struct {
	name       string
	sent, done time.Time
	failed     bool
}

// call issues one request for the session and records its timing.
func (r *sessionRun) call(ctx context.Context, e env, srv *child, name, method, path string, body []byte, out any) error {
	c := callRec{name: name, sent: e.clk.Now()}
	err := srv.call(ctx, method, path, body, out)
	c.done, c.failed = e.clk.Now(), err != nil
	r.calls = append(r.calls, c)
	return err
}

// driveSession creates a session over s, answers every query from
// ground truth and returns once the session is done, failed or
// cancelled. Label waits are timed from the label post's send to the
// reply of the first poll that shows the next query or the result.
func driveSession(ctx context.Context, e env, srv *child, s *series.Series) sessionRun {
	run := sessionRun{start: e.clk.Now()}
	body, err := json.Marshal(httpapi.SessionRequest{Series: s.Values})
	if err != nil {
		run.err = err
		return run
	}
	var st httpapi.SessionStatus
	if err := run.call(ctx, e, srv, "session_create", http.MethodPost, "/v1/sessions", body, &st); err != nil {
		run.err = err
		return run
	}
	id := st.ID
	run.id = id
	defer func() {
		// A finished session stays listed until deleted; drop it so the
		// session table does not fill up.
		_ = srv.call(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, nil)
	}()
	var posted time.Time
	waiting := false
	for {
		if err := ctx.Err(); err != nil {
			run.err = err
			return run
		}
		if err := e.sleep(ctx, labelPollEach); err != nil {
			run.err = err
			return run
		}
		st = httpapi.SessionStatus{}
		if err := run.call(ctx, e, srv, "poll", http.MethodGet, "/v1/sessions/"+id+"/pending", nil, &st); err != nil {
			run.err = err
			return run
		}
		run.polls++
		seen := e.clk.Now()
		switch {
		case st.State == httpapi.StateDone || st.State == httpapi.StateFailed || st.State == httpapi.StateCancelled:
			run.hits++
			if waiting {
				run.waits = append(run.waits, seen.Sub(posted))
			}
			run.end, run.final = seen, &st
			if st.State != httpapi.StateDone {
				run.err = fmt.Errorf("session %s ended %s: %s", id, st.State, st.Error)
			}
			return run
		case st.State == httpapi.StateAwaitingLabel && st.Pending != nil && st.Queries == run.labels:
			// A query not yet answered: the pipeline consumed every
			// posted label and is parked on the next one.
			run.hits++
			if waiting {
				run.waits = append(run.waits, seen.Sub(posted))
			}
			lbl := cabd.Label(s.LabelAt(st.Pending.Index)).String()
			b, _ := json.Marshal(httpapi.LabelRequest{Index: st.Pending.Index, Label: lbl})
			posted = e.clk.Now()
			if err := run.call(ctx, e, srv, "label_post", http.MethodPost, "/v1/sessions/"+id+"/labels", b, nil); err != nil {
				run.err = err
				return run
			}
			run.labels++
			waiting = true
		}
	}
}

func newLabelCorpus(seed int64) []*series.Series {
	out := make([]*series.Series, labelCorpus)
	for i := range out {
		out[i] = synth.YahooLike(seed*1000+int64(i), labelN)
	}
	return out
}

// labelLeg runs the two labelers back to back for d; sessions still
// open at the deadline finish and count.
func labelLeg(ctx context.Context, e env, srv *child, corpus []*series.Series, first int, d time.Duration) ([]sessionRun, time.Duration) {
	start := e.clk.Now()
	runs := make([][]sessionRun, labelers)
	var wg sync.WaitGroup
	for g := 0; g < labelers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := first + g; e.clk.Now().Sub(start) < d && ctx.Err() == nil; j += labelers {
				r := driveSession(ctx, e, srv, corpus[j%len(corpus)])
				r.corpus = j % len(corpus)
				runs[g] = append(runs[g], r)
			}
		}(g)
	}
	wg.Wait()
	var all []sessionRun
	for _, r := range runs {
		all = append(all, r...)
	}
	return all, e.clk.Now().Sub(start)
}

func runLabelSession(ctx context.Context, e env) (*outcome, error) {
	out := newOutcome()
	corpus := newLabelCorpus(e.seed)
	// The warm-up series is the same for every seed: its query count
	// sets the set-up time, which must not vary with the seed.
	warmSeries := synth.YahooLike(warmSeed, labelN)

	// Set-up: process start until a first session has run to done; the
	// last server set up takes the load.
	srv, setup, err := medianSetup(setups, func(i int) (*child, time.Duration, error) {
		t0 := e.clk.Now()
		s, err := startServer(ctx, e.serveBin, e.workDir, i)
		if err != nil {
			return nil, 0, err
		}
		if r := driveSession(ctx, e, s, warmSeries); r.err != nil {
			s.stop()
			return nil, 0, fmt.Errorf("warm-up session: %w", r.err)
		}
		return s, e.clk.Now().Sub(t0), nil
	}, func(s *child) { s.stop() })
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	out.e2e["setup_s"], out.named["setup_s"] = setup, setup

	var runs, plain []sessionRun
	var wall time.Duration
	var sv serverView
	mem := sampleRSS(srv.pid())
	if !e.trace {
		runs, wall = labelLeg(ctx, e, srv, corpus, 0, e.dur)
	} else {
		plain, _ = labelLeg(ctx, e, srv, corpus, 0, e.dur/2)
		sv, err = watchServer(ctx, srv, func() {
			runs, wall = labelLeg(ctx, e, srv, corpus, len(plain), e.dur/2)
		})
	}
	rss := mem.finish()
	if err != nil {
		return nil, err
	}

	// Outputs: every session ends done with the result in-process
	// DetectInteractive gives under the same ground-truth labeler.
	want := make([]*cabd.Result, len(corpus))
	parallelDo(len(corpus), func(i int) {
		s := corpus[i]
		want[i] = cabd.New(cabd.Options{}).DetectInteractive(s.Values, func(j int) cabd.Label { return cabd.Label(s.LabelAt(j)) })
	})
	var p prf
	queries := 0
	done := 0
	for _, r := range append(append([]sessionRun(nil), plain...), runs...) {
		out.attempted++
		if r.err != nil {
			out.fail("label-session: series %d: %v", r.corpus, r.err)
			continue
		}
		if d := diffWire(want[r.corpus], r.final.Result); d != "" {
			out.fail("label-session: series %d differs from in-process DetectInteractive: %s", r.corpus, d)
		}
	}
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		done++
		queries += r.final.Queries
		m := eval.Match(wireIndices(r.final.Result.Anomalies), corpus[r.corpus].AnomalyIndices(), matchTol)
		p.add(m.TP, m.FP, m.FN)
	}
	lat, groups := windowed(waitsMS(runs))
	perSec := sessionsPerSec(runs, wall)
	q := 0.0
	if done > 0 {
		q = float64(queries) / float64(done)
	}
	f := p.f1()
	out.e2e["throughput_per_s"], out.named["sessions_per_s"] = perSec, perSec
	out.e2e["latency_p50_ms"], out.named["label_wait_p50_ms"] = lat.P50, lat.P50
	out.e2e["latency_p99_ms"], out.named["label_wait_p99_ms"] = lat.Tail, lat.Tail
	out.e2e["f1"], out.named["f1"] = f, f
	out.e2e["peak_rss_mb"], out.named["peak_rss_mb"] = rss, rss
	out.named["queries_to_gamma"] = q
	out.notes = append(out.notes, fmt.Sprintf("%d sessions done in %.2fs by %d labelers polling every %s; label wait: lower quartile over %d groups of p50 and p%.1f, %d waits",
		done, wall.Seconds(), labelers, labelPollEach, groups, 100*lat.TailQ, lat.N))
	out.notes = append(out.notes, rssNote(srv.pid()))
	if e.trace {
		labelLayers(out, plain, runs, sv)
	}
	return out, nil
}

// labelLayers fills the label-session per-layer metrics. The attribution
// base is the summed session wall time (create sent to result visible);
// the detector stages come from the /metrics delta. al_round wraps the
// labeler call, so here it holds the wait for the client's label (poll
// lag and transport) as well as the forest retrain: read retrain cost
// from label_wait less transport, not from al_round.
func labelLayers(out *outcome, plain, runs []sessionRun, sv serverView) {
	t0 := runs[0].start
	for _, r := range runs {
		if r.start.Before(t0) {
			t0 = r.start
		}
	}
	out.tr = newTracer(t0)
	op := opAttr{Layers: map[string]float64{}}
	var rtt []float64
	polls, hits, calls, failed := 0, 0, 0, 0
	for _, r := range runs {
		id := out.tr.add("session", 0, r.id, r.start, r.end, nil)
		for _, c := range r.calls {
			out.tr.add(c.name, id, r.id, c.sent, c.done, nil)
			calls++
			if c.failed {
				failed++
				continue
			}
			rtt = append(rtt, ms(c.done.Sub(c.sent)))
		}
		if r.err != nil {
			continue
		}
		op.Wall += r.end.Sub(r.start).Seconds()
		polls += r.polls
		hits += r.hits
	}
	for _, st := range layerStages {
		op.Layers[st.name] = sv.d.stageSeconds(st.name)
	}
	attr, err := attribute([]opAttr{op})
	if err != nil {
		out.problems = append(out.problems, err.Error())
	}
	out.attr = attr
	fillStageLayers(out, attr)
	serverLayers(out, sv, float64(len(runs)))
	r := summarize(rtt)
	out.layers["client.calls"], out.layers["client.failed"] = float64(calls), float64(failed)
	out.layers["client.rtt_p50_ms"], out.layers["client.rtt_p99_ms"] = r.P50, r.Tail
	if polls > 0 {
		out.layers["session.poll_hit_ratio"] = float64(hits) / float64(polls)
	}
	out.layers["trace.overhead_ms"] = median(waitsMS(runs)) - median(waitsMS(plain))
}

// sessionsPerSec is the completed sessions per second, the upper
// quartile over the leg's time windows.
func sessionsPerSec(runs []sessionRun, wall time.Duration) float64 {
	if len(runs) == 0 {
		return 0
	}
	start := runs[0].start
	var at []time.Time
	var one []float64
	for _, r := range runs {
		if r.start.Before(start) {
			start = r.start
		}
		if r.err == nil {
			at, one = append(at, r.end), append(one, 1)
		}
	}
	return windowedRate(start, start.Add(wall), at, one)
}

// waitsMS returns the label waits of the successful runs, sessions in
// start order.
func waitsMS(runs []sessionRun) []float64 {
	runs = append([]sessionRun(nil), runs...)
	sort.Slice(runs, func(i, j int) bool { return runs[i].start.Before(runs[j].start) })
	var out []float64
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		for _, w := range r.waits {
			out = append(out, ms(w))
		}
	}
	return out
}
