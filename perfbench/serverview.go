package main

import (
	"context"
	"strconv"
	"sync"
	"time"
)

// serverView is what the server's own outputs say about a traced window:
// the /metrics delta, memstats at both ends and the highest sampled
// queue depth.
type serverView struct {
	d        exposition
	ms0, ms1 memStats
	queueMax float64
}

// watchServer scrapes /metrics and /debug/vars around run and samples
// the queue-depth gauge every 250 ms while it runs. The sampler uses a
// connection of its own, so traced runs hold one more connection than
// the two the load uses.
func watchServer(ctx context.Context, c *child, run func()) (serverView, error) {
	var sv serverView
	mon := &child{base: c.base, hc: httpClient()}
	defer mon.hc.CloseIdleConnections()
	before, err := mon.scrape(ctx)
	if err != nil {
		return sv, err
	}
	if sv.ms0, err = mon.vars(ctx); err != nil {
		return sv, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if e, err := mon.scrape(ctx); err == nil && e["cabd_queue_depth"] > sv.queueMax {
					sv.queueMax = e["cabd_queue_depth"]
				}
			}
		}
	}()
	run()
	close(stop)
	wg.Wait()
	after, err := mon.scrape(ctx)
	if err != nil {
		return sv, err
	}
	if sv.ms1, err = mon.vars(ctx); err != nil {
		return sv, err
	}
	sv.d = delta(before, after)
	return sv, nil
}

// driveLoad runs a workload's load plan against srv and returns its
// steps with the memory figure. Untraced, steps[0] is the nominal rate
// and steps[1] the closed loop that measures capacity; memory is read
// under the nominal rate only, since a saturated server's garbage
// collector falls behind by a varying amount. Traced, steps[0] and
// steps[1] are the two nominal halves and the second is watched through
// the server's outputs.
func driveLoad(ctx context.Context, e env, srv *child, p loadPlan, lanes int,
	call func(ctx context.Context, k int) error) ([]step, serverView, float64, error) {
	mem := sampleRSS(srv.pid())
	steps := runRungs(ctx, e.clk, e.sleep, p.rungs[:1], 0, lanes, call)
	first := p.rungs[0].N
	if !e.trace {
		rss := mem.finish()
		c := closedLoop{Clock: e.clk, D: p.capacity, First: first, Max: p.capCalls}
		return append(steps, c.run(ctx, lanes, call)), serverView{}, rss, nil
	}
	sv, err := watchServer(ctx, srv, func() {
		steps = append(steps, runRungs(ctx, e.clk, e.sleep, p.rungs[1:], first, lanes, call)...)
	})
	return steps, sv, mem.finish(), err
}

// serverLayers fills the per-layer metrics every served workload reads
// from the server's outputs: request time, sheds, queue depth, the
// detector's counters and the Go runtime of the server process. ops is
// the number of detector runs the window made.
func serverLayers(out *outcome, sv serverView, ops float64) {
	L, d := out.layers, sv.d
	L["server.http_busy_s"] = d.stageSeconds("http_request")
	L["server.shed"] = d["cabd_http_shed_total"]
	L["server.queue_depth_max"] = sv.queueMax
	if ops > 0 {
		L["candidates.per_op"] = d["cabd_candidates_total"] / ops
	}
	if hm := d["cabd_rank_memo_hits_total"] + d["cabd_rank_memo_misses_total"]; hm > 0 {
		L["inn_score.memo_hit_ratio"] = d["cabd_rank_memo_hits_total"] / hm
	}
	// Only the mean is recoverable from /metrics; serve-short replaces
	// these with medians of the per-reply stage_seconds.
	L["inn_score.ms_p50"] = d.stageMeanMS("inn_score")
	L["classify.ms_p50"] = d.stageMeanMS("classify")
	L["al_round.count"] = d.stageCount("al_round")
	L["al_round.queries"] = d["cabd_oracle_queries_total"]
	L["stream.hop_timeouts"] = d["cabd_stream_hop_timeouts_total"]
	L["stream.degradations"] = d["cabd_degradations_total"]
	L["runtime.gc_cpu_fraction"] = sv.ms1.GCCPUFraction
	L["runtime.gc_pause_total_ms"] = float64(sv.ms1.PauseTotalNs-sv.ms0.PauseTotalNs) / 1e6
	L["runtime.heap_inuse_mb"] = float64(sv.ms1.HeapInuse) / (1 << 20)
}

// windowOps aggregates a window's due-to-done wall time against the
// stage seconds the /metrics delta reports, plus the generator's
// lateness, as one attribution entry.
func windowOps(steps []step, d exposition) []opAttr {
	op := opAttr{Layers: map[string]float64{}}
	for _, st := range steps {
		for _, x := range st.Samples {
			if x.Done.IsZero() {
				continue
			}
			op.Wall += x.latency().Seconds()
			op.Layers["client.gen_late"] += x.late().Seconds()
		}
	}
	for _, st := range layerStages {
		op.Layers[st.name] = d.stageSeconds(st.name)
	}
	return []opAttr{op}
}

// fillStageLayers writes busy seconds and shares of every detector
// stage plus the residual share.
func fillStageLayers(out *outcome, attr attribution) {
	for _, st := range layerStages {
		out.layers[st.name+".busy_s"] = attr.LayersS[st.name]
		out.layers[st.name+".share"] = attr.share(st.name)
	}
	out.layers["unattributed.share"] = attr.unattributedShare()
}

// clientLayers fills the client/transport metrics from the traced
// window's samples.
func clientLayers(out *outcome, steps []step) {
	var rtt, late []float64
	calls, failed := 0, 0
	for _, st := range steps {
		for _, x := range st.Samples {
			calls++
			if x.Err != nil || x.Done.IsZero() {
				failed++
				continue
			}
			rtt = append(rtt, ms(x.rtt()))
			late = append(late, ms(x.late()))
		}
	}
	r := summarize(rtt)
	out.layers["client.calls"] = float64(calls)
	out.layers["client.failed"] = float64(failed)
	out.layers["client.rtt_p50_ms"], out.layers["client.rtt_p99_ms"] = r.P50, r.Tail
	out.layers["client.gen_late_p99_ms"] = summarize(late).Tail
}

// serveLayers fills the serve-short per-layer metrics. steps[0] is the
// untraced leg and steps[1] the traced one; each traced reply carries
// its own stage_seconds, so the attribution is per request.
func serveLayers(out *outcome, steps []step, replies []serveReply, sv serverView) {
	traced := steps[1]
	out.tr = newTracer(traced.Samples[0].Due)
	var ops []opAttr
	var unattrMS, innMS, clsMS []float64
	var rttSum, unattrSum float64
	for _, x := range traced.Samples {
		r := replies[x.K].res
		if r == nil {
			continue
		}
		op := opAttr{Wall: x.latency().Seconds(), Layers: map[string]float64{"client.gen_late": x.late().Seconds()}}
		stages := 0.0
		for name, s := range r.StageSeconds {
			stages += s
			if inPartition(name) {
				op.Layers[name] += s
			}
		}
		ops = append(ops, op)
		innMS = append(innMS, r.StageSeconds["inn_score"]*1000)
		clsMS = append(clsMS, r.StageSeconds["classify"]*1000)
		u := x.rtt().Seconds() - stages
		unattrMS = append(unattrMS, u*1000)
		rttSum += x.rtt().Seconds()
		unattrSum += u
		id := out.tr.add("http_detect", 0, reqID(x.K), x.Sent, x.Done, r.StageSeconds)
		out.tr.add("gen_late", id, reqID(x.K), x.Due, x.Sent, nil)
	}
	attr, err := attribute(ops)
	if err != nil {
		out.problems = append(out.problems, err.Error())
	}
	out.attr = attr
	fillStageLayers(out, attr)
	clientLayers(out, steps[1:])
	serverLayers(out, sv, float64(len(ops)))
	out.layers["server.unattributed_ms_p50"] = median(unattrMS)
	out.layers["inn_score.ms_p50"], out.layers["classify.ms_p50"] = median(innMS), median(clsMS)
	if rttSum > 0 {
		out.layers["server.unattributed_share"] = unattrSum / rttSum
	}
	untraced := summarize(steps[0].latencies())
	out.layers["trace.overhead_ms"] = summarize(traced.latencies()).P50 - untraced.P50
}

// inPartition reports whether a stage name is one of the attribution's
// detector layers.
func inPartition(name string) bool {
	for _, st := range layerStages {
		if st.name == name {
			return true
		}
	}
	return false
}

func reqID(k int) string { return "req-" + strconv.Itoa(k) }
