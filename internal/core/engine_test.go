package core

import (
	"context"
	"reflect"
	"testing"

	"cabd/internal/inn"
	"cabd/internal/series"
	"cabd/internal/stats"
	"cabd/internal/synth"
)

// TestDetectEngineDifferential runs the same fixture under the default
// rank-query INN engine and the legacy full-k-NN probe engine (a Computer
// with WithLegacyProbes(true), supplied through Env): the two engines
// answer identical membership questions, so results must be identical.
func TestDetectEngineDifferential(t *testing.T) {
	s := synth.YahooLike(100, 2000)
	d := NewDetector(Options{Seed: 1})
	ctx := context.Background()
	rank, err := d.DetectCtx(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	std := &series.Series{Values: stats.Standardize(s.Values)}
	legacy, err := d.DetectEnvCtx(ctx, s, &Env{Computer: inn.FromSeries(std).WithLegacyProbes(true)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rank.Anomalies)+len(rank.ChangePoints) == 0 {
		t.Fatal("fixture produced no detections")
	}
	if !reflect.DeepEqual(rank.Anomalies, legacy.Anomalies) ||
		!reflect.DeepEqual(rank.ChangePoints, legacy.ChangePoints) ||
		!reflect.DeepEqual(rank.Candidates, legacy.Candidates) ||
		rank.Strategy != legacy.Strategy || rank.Degraded != legacy.Degraded {
		t.Fatalf("engines disagree:\n--- rank\n%+v\n%+v\n--- legacy\n%+v\n%+v",
			rank.Anomalies, rank.ChangePoints, legacy.Anomalies, legacy.ChangePoints)
	}
}
