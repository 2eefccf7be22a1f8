package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// testdata/metrics.golden.txt is a cabd-serve /metrics scrape taken after
// two /v1/detect requests.
func TestParseExpositionGolden(t *testing.T) {
	f, err := os.Open("testdata/metrics.golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e, err := parseExposition(f)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"cabd_candidates_total":       150,
		"cabd_rank_memo_hits_total":   143,
		"cabd_rank_memo_misses_total": 1109,
		"cabd_http_requests_total":    3,
		"cabd_queue_depth":            0,
		`cabd_stage_duration_seconds_bucket{stage="inn_score",le="0.01"}`: 2,
		`cabd_stage_duration_seconds_bucket{stage="inn_score",le="+Inf"}`: 2,
	} {
		got, ok := e[key]
		if !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	if got := e.stageSeconds("inn_score"); got != 0.008227453 {
		t.Errorf("inn_score sum %v", got)
	}
	if got := e.stageCount("http_request"); got != 2 {
		t.Errorf("http_request count %v", got)
	}
	if got := e.stageMeanMS("classify"); math.Abs(got-6.5727435) > 1e-9 {
		t.Errorf("classify mean %v ms", got)
	}
	if got := e.stageSeconds("al_round"); got != 0 {
		t.Errorf("al_round never ran but sums to %v", got)
	}
}

func TestExpositionDelta(t *testing.T) {
	before, err := parseExposition(strings.NewReader(`# TYPE cabd_http_shed_total counter
cabd_http_shed_total 2
cabd_stage_duration_seconds_sum{stage="classify"} 1.5
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(strings.NewReader(`cabd_http_shed_total 5
cabd_stage_duration_seconds_sum{stage="classify"} 2.25
cabd_stage_duration_seconds_sum{stage="al_round"} 0.5 1700000000000
`))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	if d["cabd_http_shed_total"] != 3 || d.stageSeconds("classify") != 0.75 || d.stageSeconds("al_round") != 0.5 {
		t.Fatalf("delta %v", d)
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, in := range []string{"cabd_x\n", "cabd_x notanumber\n", `cabd_y{stage="a b"}` + "\n"} {
		if _, err := parseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("parseExposition(%q) accepted it", in)
		}
	}
}
