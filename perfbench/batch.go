package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"cabd"
	"cabd/internal/eval"
	"cabd/internal/series"
	"cabd/internal/synth"
)

// Batch corpus shape: every fourth call is multivariate.
const (
	batchN       = 5000
	batchUni     = 36 // univariate series, detected four per call
	batchPerCall = 4
	multiN       = 2000
	multiD       = 3
	multiSets    = 8 // multivariate series, detected two per call
	multiPerCall = 2
	matchTol     = 2 // index tolerance of the F-score, as in EXPERIMENTS.md
)

type batchCorpus struct {
	uni   []*series.Series
	multi [][][]float64
}

// newBatchCorpus generates the seeded corpus: YahooLike and KPILike
// series alternate, and the multivariate sets cycle through the carrier
// families.
func newBatchCorpus(seed int64) batchCorpus {
	var c batchCorpus
	for i := 0; i < batchUni; i++ {
		s := seed*1000 + int64(i)
		if i%2 == 0 {
			c.uni = append(c.uni, synth.YahooLike(s, batchN))
		} else {
			c.uni = append(c.uni, synth.KPILike(s, batchN))
		}
	}
	fams := synth.Families()
	for i := 0; i < multiSets; i++ {
		fam := fams[(int(seed)+i)%len(fams)]
		c.multi = append(c.multi, synth.CorrelatedDims(fam, seed*1000+500+int64(i), multiN, multiD, 0.8))
	}
	return c
}

// batchCall is call c's input: a slice of univariate series, or (every
// fourth call) a slice of multivariate sets. idx are corpus positions.
func (c batchCorpus) call(k int) (uni [][]float64, multi [][][]float64, idx []int) {
	if k%4 == 3 {
		j := (k / 4) % (multiSets / multiPerCall)
		for i := 0; i < multiPerCall; i++ {
			idx = append(idx, j*multiPerCall+i)
			multi = append(multi, c.multi[j*multiPerCall+i])
		}
		return nil, multi, idx
	}
	j := (k - k/4) % (batchUni / batchPerCall)
	for i := 0; i < batchPerCall; i++ {
		idx = append(idx, j*batchPerCall+i)
		uni = append(uni, c.uni[j*batchPerCall+i].Values)
	}
	return uni, nil, idx
}

// batchLeg is one closed-loop measurement over the corpus.
type batchLeg struct {
	calls     int
	series    int
	start     time.Time
	wall      time.Duration
	ends      []time.Time // when each call returned
	sizes     []float64   // how many series each call detected
	latMS     []float64
	uniRes    map[int]*cabd.Result
	multiRes  map[int]*cabd.Result
	ops       []opAttr
	stageMS   map[string][]float64
	multiBusy float64
}

// runBatchLeg calls DetectBatch back to back for d. With rec set every
// series reports its stage timings, which feed the attribution.
func runBatchLeg(ctx context.Context, e env, c batchCorpus, d time.Duration, rec *cabd.Recorder, tr *tracer) (batchLeg, error) {
	uniDet := cabd.New(cabd.Options{Obs: rec})
	multiDet := cabd.NewMulti(cabd.Options{Obs: rec})
	leg := batchLeg{uniRes: map[int]*cabd.Result{}, multiRes: map[int]*cabd.Result{}, stageMS: map[string][]float64{}}
	start := e.clk.Now()
	leg.start = start
	for k := 0; e.clk.Now().Sub(start) < d; k++ {
		if err := ctx.Err(); err != nil {
			return leg, err
		}
		uni, multi, idx := c.call(k)
		t0 := e.clk.Now()
		var res []*cabd.Result
		var errs []error
		name := "detect_batch"
		if multi != nil {
			name = "multi_detect_batch"
			res, errs = multiDet.DetectBatchCtx(ctx, multi)
		} else {
			res, errs = uniDet.DetectBatchCtx(ctx, uni)
		}
		t1 := e.clk.Now()
		for i, err := range errs {
			if err != nil {
				return leg, fmt.Errorf("%s: series %d: %w", name, idx[i], err)
			}
		}
		leg.calls++
		leg.series += len(res)
		leg.ends, leg.sizes = append(leg.ends, t1), append(leg.sizes, float64(len(res)))
		leg.latMS = append(leg.latMS, ms(t1.Sub(t0)))
		workers := runtime.GOMAXPROCS(0)
		if workers > len(res) {
			workers = len(res)
		}
		op := opAttr{Wall: t1.Sub(t0).Seconds() * float64(workers), Layers: map[string]float64{}}
		attrs := map[string]float64{}
		for i, r := range res {
			// Only the detections are kept for the checks; holding every
			// trained forest would inflate the process's peak RSS.
			r.Model = nil
			if multi != nil {
				leg.multiRes[idx[i]] = r
				leg.multiBusy += stageTotal(r.Stages)
			} else {
				leg.uniRes[idx[i]] = r
			}
			for _, st := range layerStages {
				s := r.Stages.Get(st.stage).Seconds()
				op.Layers[st.name] += s
				attrs[st.name] += s
				leg.stageMS[st.name] = append(leg.stageMS[st.name], s*1000)
			}
		}
		if rec != nil {
			leg.ops = append(leg.ops, op)
			tr.add(name, 0, fmt.Sprintf("call-%d", k), t0, t1, attrs)
		}
	}
	leg.wall = e.clk.Now().Sub(start)
	return leg, nil
}

// layerStages are the detector stages the attribution splits time
// into; all but assemble have per-layer metrics of their own.
var layerStages = []struct {
	name  string
	stage cabd.Stage
}{
	{"sanitize", cabd.StageSanitize},
	{"candidates", cabd.StageCandidates},
	{"inn_score", cabd.StageINNScore},
	{"bootstrap", cabd.StageBootstrap},
	{"classify", cabd.StageClassify},
	{"al_round", cabd.StageALRound},
	{"assemble", cabd.StageAssemble},
}

func stageTotal(st cabd.StageTimings) float64 {
	t := 0.0
	for _, s := range layerStages {
		t += st.Get(s.stage).Seconds()
	}
	return t
}

// seriesPerSec is the leg's throughput, the upper quartile over its
// time windows.
func (l batchLeg) seriesPerSec() float64 {
	return windowedRate(l.start, l.start.Add(l.wall), l.ends, l.sizes)
}

// runBatchLong is the batch-long workload: closed-loop DetectBatch over
// long univariate series, one call in four multivariate.
func runBatchLong(ctx context.Context, e env) (*outcome, error) {
	out := newOutcome()
	c := newBatchCorpus(e.seed)

	// Set-up: detector construction plus a first call on two series and
	// one multivariate set, repeated and reported as the median. The
	// set-up inputs do not vary with the seed, so neither does their cost.
	warmUni := [][]float64{synth.YahooLike(warmSeed, batchN).Values, synth.KPILike(warmSeed, batchN).Values}
	warmMulti := synth.CorrelatedDims(synth.Families()[0], warmSeed, multiN, multiD, 0.8)
	_, setup, err := medianSetup(setups, func(int) (struct{}, time.Duration, error) {
		t0 := e.clk.Now()
		cabd.New(cabd.Options{}).DetectBatch(warmUni)
		cabd.NewMulti(cabd.Options{}).Detect(warmMulti)
		return struct{}{}, e.clk.Now().Sub(t0), nil
	}, func(struct{}) {})
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"], out.named["setup_s"] = setup, setup

	var leg batchLeg
	mem := sampleRSS(os.Getpid())
	if !e.trace {
		if leg, err = runBatchLeg(ctx, e, c, e.dur, nil, nil); err != nil {
			return nil, err
		}
	} else {
		// Traced run: an untraced leg, a traced leg, and a GOMAXPROCS=1
		// leg for the batch pool's parallel speed-up.
		third := e.dur / 3
		plain, err := runBatchLeg(ctx, e, c, third, nil, nil)
		if err != nil {
			return nil, err
		}
		rec := cabd.NewRecorder()
		out.tr = newTracer(e.clk.Now())
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		if leg, err = runBatchLeg(ctx, e, c, third, rec, out.tr); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)
		prev := runtime.GOMAXPROCS(1)
		single, err := runBatchLeg(ctx, e, c, third, nil, nil)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return nil, err
		}
		batchLayers(out, leg, rec, plain, single, ms0, ms1)
		out.notes = append(out.notes, fmt.Sprintf("legs: untraced %d calls, traced %d calls, GOMAXPROCS=1 %d calls",
			plain.calls, leg.calls, single.calls))
	}
	rss := mem.finish()
	out.notes = append(out.notes, rssNote(os.Getpid()))
	out.attempted = leg.calls
	checkBatch(out, c, leg)

	lat, groups := windowed(leg.latMS)
	tput := leg.seriesPerSec()
	f := batchF1(c, leg)
	out.e2e["throughput_per_s"], out.named["series_per_s"] = tput, tput
	out.e2e["latency_p50_ms"], out.named["latency_p50_ms"] = lat.P50, lat.P50
	out.e2e["latency_p99_ms"], out.named["latency_p99_ms"] = lat.Tail, lat.Tail
	out.e2e["f1"], out.named["f1"] = f, f
	out.e2e["peak_rss_mb"], out.named["peak_rss_mb"] = rss, rss
	out.notes = append(out.notes, fmt.Sprintf("%d DetectBatch calls (%d series) in %.2fs, GOMAXPROCS=%d; latency per call, lower quartile over %d groups of p50 and p%.1f, %d calls",
		leg.calls, leg.series, leg.wall.Seconds(), runtime.GOMAXPROCS(0), groups, 100*lat.TailQ, lat.N))
	return out, nil
}

// batchF1 pools the univariate corpus's detections against its labels.
// The multivariate sets carry no injected faults and are not scored.
func batchF1(c batchCorpus, leg batchLeg) float64 {
	var p prf
	for i, s := range c.uni {
		r := leg.uniRes[i]
		if r == nil {
			continue
		}
		m := eval.Match(r.AnomalyIndices(), s.AnomalyIndices(), matchTol)
		p.add(m.TP, m.FP, m.FN)
	}
	return p.f1()
}

// checkBatch replays a sample of the corpus through the sequential
// row-major reference (Options.SeqOracle) and compares detection for
// detection: two univariate series and one multivariate set.
func checkBatch(out *outcome, c batchCorpus, leg batchLeg) {
	seq := cabd.New(cabd.Options{SeqOracle: true})
	for _, i := range []int{0, 1 + (batchUni-2)/2, batchUni - 1} {
		got := leg.uniRes[i]
		if got == nil {
			out.fail("batch-long: univariate series %d was never detected", i)
			continue
		}
		if d := diffResults(seq.Detect(c.uni[i].Values), got); d != "" {
			out.fail("batch-long: univariate series %d differs from SeqOracle: %s", i, d)
		}
	}
	mseq := cabd.NewMulti(cabd.Options{SeqOracle: true})
	if got := leg.multiRes[0]; got == nil {
		out.fail("batch-long: multivariate set 0 was never detected")
	} else if d := diffResults(mseq.Detect(c.multi[0]), got); d != "" {
		out.fail("batch-long: multivariate set 0 differs from SeqOracle: %s", d)
	}
}

// diffResults describes the first difference between two results'
// detections, "" when they match exactly.
func diffResults(want, got *cabd.Result) string {
	if d := diffDetections(want.Anomalies, got.Anomalies); d != "" {
		return "anomalies: " + d
	}
	if d := diffDetections(want.ChangePoints, got.ChangePoints); d != "" {
		return "change points: " + d
	}
	if want.Queries != got.Queries {
		return fmt.Sprintf("queries %d vs %d", want.Queries, got.Queries)
	}
	return ""
}

func diffDetections(want, got []cabd.Detection) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d detections, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Sprintf("detection %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return ""
}

// batchLayers fills the per-layer metrics of the traced batch-long run.
func batchLayers(out *outcome, leg batchLeg, rec *cabd.Recorder, plain, single batchLeg, ms0, ms1 runtime.MemStats) {
	attr, err := attribute(leg.ops)
	if err != nil {
		out.problems = append(out.problems, err.Error())
	}
	out.attr = attr
	L := out.layers
	rtt := summarize(leg.latMS)
	L["client.calls"] = float64(leg.calls)
	L["client.rtt_p50_ms"], L["client.rtt_p99_ms"] = rtt.P50, rtt.Tail
	fillStageLayers(out, attr)
	L["inn_score.ms_p50"] = median(leg.stageMS["inn_score"])
	L["classify.ms_p50"] = median(leg.stageMS["classify"])
	snap := rec.Snapshot()
	L["candidates.per_op"] = float64(snap.Counters["candidates_total"]) / float64(leg.series)
	hits, misses := snap.Counters["rank_memo_hits_total"], snap.Counters["rank_memo_misses_total"]
	if hits+misses > 0 {
		L["inn_score.memo_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	L["al_round.count"] = float64(rec.StageCount(cabd.StageALRound))
	L["al_round.queries"] = float64(snap.Counters["oracle_queries_total"])
	L["stream.degradations"] = float64(snap.Counters["degradations_total"])
	L["multi.busy_s"] = leg.multiBusy
	if attr.WallS > 0 {
		L["multi.share"] = leg.multiBusy / attr.WallS
	}
	L["batch.parallel_speedup"] = plain.seriesPerSec() / single.seriesPerSec()
	L["runtime.gc_cpu_fraction"] = ms1.GCCPUFraction
	L["runtime.gc_pause_total_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	L["runtime.heap_inuse_mb"] = float64(ms1.HeapInuse) / (1 << 20)
	L["trace.overhead_ms"] = rtt.P50 - summarize(plain.latMS).P50
}
