package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// exposition is one parsed Prometheus text scrape: sample value by
// series key, the key being the metric name plus its label block
// exactly as exposed (`cabd_stage_duration_seconds_sum{stage="inn_score"}`).
type exposition map[string]float64

// parseExposition reads the text format: comment and blank lines are
// skipped, every other line is `<key> <value>` with an optional
// trailing timestamp.
func parseExposition(r io.Reader) (exposition, error) {
	out := exposition{}
	sc := bufio.NewScanner(r)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value follows the label block; label values may hold spaces.
		rest := line
		key := ""
		if i := strings.IndexByte(line, '}'); i >= 0 {
			key, rest = line[:i+1], line[i+1:]
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			key, rest = line[:i], line[i:]
		}
		fields := strings.Fields(rest)
		if key == "" || len(fields) == 0 {
			return nil, fmt.Errorf("exposition line %d: no value: %q", ln, line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %v", ln, err)
		}
		out[key] = v
	}
	return out, sc.Err()
}

// delta returns after − before for every key of after; a key absent
// before counts from zero (Prometheus counters are created lazily).
func delta(before, after exposition) exposition {
	out := make(exposition, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func stageKey(suffix, stage string) string {
	return fmt.Sprintf("cabd_stage_duration_seconds_%s{stage=%q}", suffix, stage)
}

// stageSeconds is a stage's summed duration in an exposition.
func (e exposition) stageSeconds(stage string) float64 { return e[stageKey("sum", stage)] }

// stageCount is a stage's span count in an exposition.
func (e exposition) stageCount(stage string) float64 { return e[stageKey("count", stage)] }

// stageMeanMS is a stage's mean span duration. The exposition's
// buckets are a decade wide, too coarse for a median.
func (e exposition) stageMeanMS(stage string) float64 {
	if n := e.stageCount(stage); n > 0 {
		return e.stageSeconds(stage) / n * 1000
	}
	return 0
}

// scrape fetches and parses /metrics.
func (c *child) scrape(ctx context.Context) (exposition, error) {
	st, b, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", st)
	}
	return parseExposition(strings.NewReader(string(b)))
}

// memStats is the part of the runtime.MemStats that /debug/vars
// publishes and the benchmark reads.
type memStats struct {
	HeapInuse     uint64
	PauseTotalNs  uint64
	GCCPUFraction float64
	NumGC         uint32
}

// vars fetches the process's memstats from /debug/vars.
func (c *child) vars(ctx context.Context) (memStats, error) {
	var v struct {
		Memstats memStats `json:"memstats"`
	}
	err := c.call(ctx, http.MethodGet, "/debug/vars", nil, &v)
	return v.Memstats, err
}
