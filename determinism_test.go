package cabd

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"cabd/internal/core"
	"cabd/internal/sanitize"
	"cabd/internal/synth"
)

// fingerprint serializes the deterministic surface of a result — indices,
// classes and degradation flags, not wall-time-dependent fields — so runs
// can be compared byte for byte.
func fingerprint(res *Result) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "strategy=%s degraded=%v reason=%q\n",
		res.Strategy, res.Degraded, res.DegradeReason)
	for _, d := range res.Anomalies {
		fmt.Fprintf(&b, "a %d %s\n", d.Index, d.Subtype)
	}
	for _, d := range res.ChangePoints {
		fmt.Fprintf(&b, "c %d %s\n", d.Index, d.Subtype)
	}
	return b.String()
}

// TestDetectDeterministic runs fixed-seed detection on the 2k synthetic
// fixture repeatedly and demands byte-identical output: the pipeline's
// stochastic components (forest bagging, GMM seeding) are all driven by
// Options.Seed, and the parallel INN scoring must not leak scheduling
// nondeterminism into the result.
func TestDetectDeterministic(t *testing.T) {
	s := synth.YahooLike(100, 2000)
	first := fingerprint(New(Options{Seed: 1}).Detect(s.Values))
	if len(first) == 0 {
		t.Fatal("empty fingerprint")
	}
	if !bytes.Contains([]byte(first), []byte("\na ")) && !bytes.Contains([]byte(first), []byte("\nc ")) {
		t.Fatalf("fixture produced no detections:\n%s", first)
	}
	for run := 2; run <= 4; run++ {
		got := fingerprint(New(Options{Seed: 1}).Detect(s.Values))
		if got != first {
			t.Fatalf("run %d diverged:\n--- run 1\n%s--- run %d\n%s", run, first, run, got)
		}
	}
}

// TestDetectSeqOracleDifferential is the raw-speed pass's central
// contract: the optimized pipeline — SoA feature matrix, per-tree
// parallel forest training, tree-major batch inference — must emit
// byte-identical detections to the sequential row-major reference path
// (Options.SeqOracle), at every GOMAXPROCS, under both sanitize
// policies, and on the degraded FixedKNN ablation. One byte of drift
// here means a scheduling or accumulation-order leak.
func TestDetectSeqOracleDifferential(t *testing.T) {
	s := synth.YahooLike(100, 2000)
	// Poison a few points so the sanitize policies have work to do and
	// Interpolate vs Drop genuinely produce different candidate sets.
	vals := append([]float64(nil), s.Values...)
	vals[137] = math.NaN()
	vals[901] = math.Inf(1)

	cases := []struct {
		name string
		opts Options
	}{
		{"default", Options{Seed: 1}},
		{"interpolate", Options{Seed: 1, Sanitize: sanitize.Interpolate}},
		{"drop", Options{Seed: 1, Sanitize: sanitize.Drop}},
		{"fixed-knn", Options{Seed: 1, Strategy: core.FixedKNN}},
		{"degraded", Options{Seed: 1, DegradeCandidates: 4}},
		{"seed-42", Options{Seed: 42}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := tc.opts
			seq.SeqOracle = true
			want := fingerprint(New(seq).Detect(vals))
			if tc.name == "degraded" && !bytes.Contains([]byte(want), []byte("degraded=true")) {
				t.Fatalf("degraded case did not degrade:\n%s", want)
			}
			for _, procs := range []int{1, 2, 8} {
				prev := runtime.GOMAXPROCS(procs)
				got := fingerprint(New(tc.opts).Detect(vals))
				runtime.GOMAXPROCS(prev)
				if got != want {
					t.Fatalf("GOMAXPROCS=%d diverged from sequential oracle:\n--- oracle\n%s--- fast\n%s",
						procs, want, got)
				}
			}
		})
	}
}

// TestDetectInteractiveSeqOracleDifferential extends the differential
// contract through the active-learning loop: the interactive retraining
// rounds reuse the batch scratch buffers round over round, so any stale
// state there would first surface here.
func TestDetectInteractiveSeqOracleDifferential(t *testing.T) {
	s := synth.YahooLike(100, 2000)
	oracle := func(i int) Label {
		if i%3 == 0 {
			return SingleAnomaly
		}
		return Normal
	}
	seq := fingerprint(New(Options{Seed: 1, SeqOracle: true}).DetectInteractive(s.Values, oracle))
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		got := fingerprint(New(Options{Seed: 1}).DetectInteractive(s.Values, oracle))
		runtime.GOMAXPROCS(prev)
		if got != seq {
			t.Fatalf("GOMAXPROCS=%d interactive run diverged from sequential oracle:\n--- oracle\n%s--- fast\n%s",
				procs, seq, got)
		}
	}
}

// TestDetectDeterministicWithRecorder verifies that attaching a metrics
// recorder does not perturb detections (observability must be read-only
// with respect to the pipeline's decisions).
func TestDetectDeterministicWithRecorder(t *testing.T) {
	s := synth.YahooLike(100, 2000)
	plain := fingerprint(New(Options{Seed: 1}).Detect(s.Values))
	instrumented := fingerprint(New(Options{Seed: 1, Obs: NewRecorder()}).Detect(s.Values))
	if plain != instrumented {
		t.Fatalf("recorder changed detections:\n--- nil\n%s--- recorder\n%s", plain, instrumented)
	}
}
