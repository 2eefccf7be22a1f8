package main

import (
	"math"
	"strings"
	"testing"
)

func TestAttributeAddsUp(t *testing.T) {
	ops := []opAttr{
		{Wall: 1.0, Layers: map[string]float64{"inn_score": 0.5, "classify": 0.3}},
		{Wall: 2.0, Layers: map[string]float64{"inn_score": 1.0, "client.gen_late": 0.5}},
		{Wall: 0.5, Layers: map[string]float64{}},
	}
	a, err := attribute(ops)
	if err != nil {
		t.Fatal(err)
	}
	if a.WallS != 3.5 || a.LayersS["inn_score"] != 1.5 || a.LayersS["classify"] != 0.3 || a.LayersS["client.gen_late"] != 0.5 {
		t.Fatalf("attribution %+v", a)
	}
	if math.Abs(a.UnattributedS-1.2) > 1e-12 {
		t.Fatalf("unattributed %g s, want 1.2", a.UnattributedS)
	}
	sum := a.UnattributedS
	for _, s := range a.LayersS {
		sum += s
	}
	if math.Abs(sum-a.WallS) > 1e-12 {
		t.Fatalf("layers + unattributed = %g, wall %g", sum, a.WallS)
	}
	if got := a.share("inn_score"); math.Abs(got-1.5/3.5) > 1e-12 {
		t.Fatalf("share %g", got)
	}
}

func TestAttributeRejectsBadBooks(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  []opAttr
		want string
	}{
		{"negative layer", []opAttr{{Wall: 1, Layers: map[string]float64{"classify": -0.1}}}, "negative"},
		{"layers exceed wall", []opAttr{{Wall: 1, Layers: map[string]float64{"inn_score": 0.8, "classify": 0.5}}}, "exceed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := attribute(tc.ops); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("attribute = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
	// Within the 1% + 1 ms slack a clock-granularity overshoot passes.
	if _, err := attribute([]opAttr{{Wall: 1, Layers: map[string]float64{"inn_score": 1.005}}}); err != nil {
		t.Fatalf("attribute rejected an overshoot inside the slack: %v", err)
	}
}
