package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"time"
)

// span is one benchmark-side interval around a call into a layer. Attrs
// carries the per-stage seconds the program reported for the call, when
// it reports any; the program itself records no spans.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Req    string             `json:"req,omitempty"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs and legs stay free of its cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// add records a span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent int, req string, start, end time.Time, attrs map[string]float64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Attrs: attrs})
	return id
}

// opAttr is one operation's end-to-end wall time and the seconds of it
// each layer accounts for.
type opAttr struct {
	Wall   float64
	Layers map[string]float64
}

// attribution splits the summed wall time of many operations into
// layers and an unattributed remainder.
type attribution struct {
	WallS         float64            `json:"wall_s"`
	LayersS       map[string]float64 `json:"layers_s"`
	UnattributedS float64            `json:"unattributed_s"`
}

// attribute sums per-operation layer seconds and per-operation
// remainders, then checks the books: no layer is negative, the layers
// never exceed the wall they sit in (1% + 1 ms slack for clock
// granularity), and layers plus unattributed add up to the wall.
func attribute(ops []opAttr) (attribution, error) {
	a := attribution{LayersS: map[string]float64{}}
	for _, op := range ops {
		rest := op.Wall
		for name, s := range op.Layers {
			if s < 0 {
				return a, fmt.Errorf("attribution: layer %s is negative (%g s)", name, s)
			}
			a.LayersS[name] += s
			rest -= s
		}
		a.WallS += op.Wall
		a.UnattributedS += rest
	}
	sum := a.UnattributedS
	for _, s := range a.LayersS {
		sum += s
	}
	if math.Abs(sum-a.WallS) > 1e-9*math.Max(1, a.WallS) {
		return a, fmt.Errorf("attribution: layers + unattributed = %g s, wall = %g s", sum, a.WallS)
	}
	if a.UnattributedS < -(0.01*a.WallS + 0.001) {
		return a, fmt.Errorf("attribution: layers exceed the wall by %g s of %g s", -a.UnattributedS, a.WallS)
	}
	return a, nil
}

// share is a layer's fraction of the attributed wall.
func (a attribution) share(layer string) float64 {
	if a.WallS <= 0 {
		return 0
	}
	return a.LayersS[layer] / a.WallS
}

func (a attribution) unattributedShare() float64 {
	if a.WallS <= 0 {
		return 0
	}
	return a.UnattributedS / a.WallS
}

// write stores the spans, the attribution and the run metadata as one
// JSON document.
func (t *tracer) write(path string, meta map[string]any, attr attribution, layers map[string]float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{
		"meta": meta, "attribution": attr, "per_layer": layers, "spans": t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
