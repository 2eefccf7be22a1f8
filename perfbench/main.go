// Command perfbench is the repository benchmark. One run measures one
// named workload against the cabd library facade or a cabd-serve child
// process, checks every output it timed, and prints its metrics: the
// end-to-end set with -trace 0, the per-layer set with -trace 1. The
// last line of standard output is the result as one JSON object.
//
//	bash perfbench/run.sh --workload serve-short --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cabd/internal/obs"
)

// env is what every workload receives.
type env struct {
	seed     int64
	dur      time.Duration
	trace    bool
	serveBin string
	workDir  string
	clk      obs.Clock
	sleep    obs.SleepFunc
}

// outcome is what every workload returns.
type outcome struct {
	attempted, failed int
	problems          []string
	// e2e holds the end-to-end metrics under their BENCHMARK.json names;
	// named holds them under the per-workload names of README.md.
	e2e, named map[string]float64
	layers     map[string]float64
	attr       attribution
	notes      []string
	tr         *tracer
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, named: map[string]float64{}, layers: map[string]float64{}}
}

// fail records a failed operation or check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type metricSpec struct{ name, unit string }

// e2eMetrics and layerMetrics are the names BENCHMARK.json declares, in
// its order.
var e2eMetrics = []metricSpec{
	{"setup_s", "s"}, {"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
	{"f1", "ratio"}, {"peak_rss_mb", "MB"},
}

var layerMetrics = []metricSpec{
	{"client.calls", "count"}, {"client.failed", "count"},
	{"client.rtt_p50_ms", "ms"}, {"client.rtt_p99_ms", "ms"}, {"client.gen_late_p99_ms", "ms"},
	{"server.http_busy_s", "s"}, {"server.shed", "count"}, {"server.queue_depth_max", "count"},
	{"server.unattributed_ms_p50", "ms"}, {"server.unattributed_share", "ratio"},
	{"sanitize.busy_s", "s"}, {"sanitize.share", "ratio"},
	{"candidates.busy_s", "s"}, {"candidates.share", "ratio"}, {"candidates.per_op", "count"},
	{"inn_score.busy_s", "s"}, {"inn_score.ms_p50", "ms"}, {"inn_score.share", "ratio"},
	{"inn_score.memo_hit_ratio", "ratio"},
	{"bootstrap.busy_s", "s"}, {"bootstrap.share", "ratio"},
	{"classify.busy_s", "s"}, {"classify.ms_p50", "ms"}, {"classify.share", "ratio"},
	{"al_round.count", "count"}, {"al_round.queries", "count"}, {"session.poll_hit_ratio", "ratio"},
	{"stream.hops", "count"}, {"stream.emitted", "count"}, {"stream.hop_timeouts", "count"},
	{"stream.degradations", "count"},
	{"multi.busy_s", "s"}, {"multi.share", "ratio"},
	{"batch.parallel_speedup", "ratio"},
	{"runtime.gc_cpu_fraction", "ratio"}, {"runtime.gc_pause_total_ms", "ms"}, {"runtime.heap_inuse_mb", "MB"},
	{"unattributed.share", "ratio"}, {"trace.overhead_ms", "ms"},
}

// namedMetrics are the per-workload metric names README.md defines;
// each workload fills the ones that apply to it.
var namedMetrics = []metricSpec{
	{"setup_s", "s"}, {"series_per_s", "1/s"},
	{"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
	{"sustained_rps", "1/s"}, {"sustained_pts_per_s", "1/s"},
	{"label_wait_p50_ms", "ms"}, {"label_wait_p99_ms", "ms"},
	{"sessions_per_s", "1/s"}, {"queries_to_gamma", "count"},
	{"f1", "ratio"}, {"error_rate", "ratio"}, {"peak_rss_mb", "MB"},
}

type workload struct {
	name string
	run  func(ctx context.Context, e env) (*outcome, error)
}

var workloads = []workload{
	{"batch-long", runBatchLong},
	{"serve-short", runServeShort},
	{"stream-w1024", runStream},
	{"label-session", runLabelSession},
}

func main() {
	name := flag.String("workload", "", "workload to run: batch-long, serve-short, stream-w1024 or label-session")
	seed := flag.Int64("seed", 1, "input seed; it changes the generated inputs, not the workload's shape")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	root := flag.String("root", ".", "repository checkout the binaries were built from")
	serveBin := flag.String("serve-bin", "", "path of the cabd-serve binary built from the checkout")
	workDir := flag.String("work-dir", ".bench_build", "directory for port files, server logs and traces")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1, -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if wl.name != "batch-long" {
		if _, err := os.Stat(*serveBin); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: -serve-bin: %v\n", err)
			os.Exit(2)
		}
	}
	runDir := filepath.Join(*workDir, fmt.Sprintf("run-%s-%d-%d", wl.name, *seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	meta := hostMeta(*root, runDir)
	e := env{seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		serveBin: *serveBin, workDir: runDir, clk: obs.Wall, sleep: obs.Sleep}
	if e.trace {
		meta["tracing"] = "on"
	}

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	out, err := wl.run(ctx, e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	if e.trace && out.tr != nil {
		path := filepath.Join(*workDir, fmt.Sprintf("trace-%s-seed%d.json", wl.name, *seed))
		if err := out.tr.write(path, meta, out.attr, out.layers); err != nil {
			out.problems = append(out.problems, "writing trace: "+err.Error())
		} else {
			out.notes = append(out.notes, "trace written to "+path)
		}
	}
	_ = os.RemoveAll(runDir)
	report(os.Stdout, wl.name, *seed, e.trace, meta, out)
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// hostMeta collects the facts every result is stamped with.
func hostMeta(root, runDir string) map[string]any {
	load := ""
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.Join(strings.Fields(string(b))[:3], " ")
	}
	commit := "unknown (not a git checkout)"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(b))
		}
	}
	return map[string]any{
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"commit":      commit,
		"loadavg":     load,
		"serve_flags": strings.Join(serveFlags(filepath.Join(runDir, "serve-N.port")), " "),
	}
}

// report prints the human-readable metric lines and, last, the JSON
// result line.
func report(w *os.File, name string, seed int64, traced bool, meta map[string]any, out *outcome) {
	mb, _ := json.Marshal(meta)
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d trace=%v\n# meta %s\n", name, seed, traced, mb)
	for _, n := range out.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "# FAILED: %s\n", p)
	}
	errRate := 0.0
	if out.attempted > 0 {
		errRate = float64(out.failed) / float64(out.attempted)
	}
	out.named["error_rate"] = errRate
	fmt.Fprintf(w, "# end-to-end metrics by README name (n/a where the metric does not apply)\n")
	for _, m := range namedMetrics {
		if v, ok := out.named[m.name]; ok {
			fmt.Fprintf(w, "%-22s %14.4f %s\n", m.name, v, m.unit)
		} else {
			fmt.Fprintf(w, "%-22s %14s %s\n", m.name, "n/a", m.unit)
		}
	}
	specs, vals := e2eMetrics, out.e2e
	if traced {
		specs, vals = layerMetrics, out.layers
		fmt.Fprintf(w, "# per-layer metrics\n")
		for _, m := range specs {
			fmt.Fprintf(w, "%-28s %14.4f %s\n", m.name, vals[m.name], m.unit)
		}
	}
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]map[string]any{}}
	res.Correct = out.failed == 0 && len(out.problems) == 0 && out.attempted > 0
	for _, m := range specs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no infinities; a non-finite value only arises from
			// failed calls, which already mark the run incorrect.
			v, res.Correct = 0, false
		}
		res.Metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(w, "%s\n", b)
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 5

// medianSetup runs setup n times and returns the median duration; the
// value kept is the last setup's.
func medianSetup[T any](n int, setup func(i int) (T, time.Duration, error), discard func(T)) (T, float64, error) {
	var keep T
	var ds []float64
	for i := 0; i < n; i++ {
		v, d, err := setup(i)
		if err != nil {
			return keep, 0, err
		}
		ds = append(ds, d.Seconds())
		if i < n-1 {
			discard(v)
		} else {
			keep = v
		}
	}
	return keep, median(ds), nil
}
