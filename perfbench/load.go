package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"cabd/internal/obs"
)

// sample is one timed call. Latency counts from Due, not from Sent, so
// a call that waited behind a stalled predecessor carries that wait.
// K is the call's number, which picks its input.
type sample struct {
	K               int
	Due, Sent, Done time.Time
	Err             error
}

func (s sample) latency() time.Duration { return s.Done.Sub(s.Due) }
func (s sample) late() time.Duration    { return s.Sent.Sub(s.Due) }
func (s sample) rtt() time.Duration     { return s.Done.Sub(s.Sent) }

// openLoop issues calls First..First+N-1 on a fixed schedule, call
// First+i due at Start + i/Rate, whether or not earlier calls have
// returned.
type openLoop struct {
	Clock obs.Clock
	Sleep obs.SleepFunc
	Start time.Time
	Rate  float64 // calls per second
	First int
	N     int
}

func (o openLoop) due(i int) time.Time {
	return o.Start.Add(time.Duration(float64(i) * float64(time.Second) / o.Rate))
}

// run drives the calls from `lanes` goroutines and returns one sample
// per call, in call order. Lane k%lanes sends call k, so one lane's
// calls go out in order (a stream's chunks must not overtake each
// other).
func (o openLoop) run(ctx context.Context, lanes int, call func(ctx context.Context, k int) error) []sample {
	out := make([]sample, o.N)
	for i := range out {
		out[i].K = o.First + i
	}
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := (lane - o.First%lanes + lanes) % lanes; i < o.N && ctx.Err() == nil; i += lanes {
				due := o.due(i)
				if wait := due.Sub(o.Clock.Now()); wait > 0 {
					if err := o.Sleep(ctx, wait); err != nil {
						return
					}
				}
				s := sample{K: o.First + i, Due: due, Sent: o.Clock.Now()}
				s.Err = call(ctx, s.K)
				s.Done = o.Clock.Now()
				out[i] = s
			}
		}(l)
	}
	wg.Wait()
	return out
}

// closedLoop issues calls First, First+1, ... from `lanes` goroutines,
// each lane sending its next call as soon as its last one returned,
// until D has passed or the calls below First+Max are used up. Lane
// k%lanes sends call k, as in openLoop.
type closedLoop struct {
	Clock obs.Clock
	D     time.Duration
	First int
	Max   int
}

// run returns the step: one sample per call made, in call order, due
// when sent.
func (c closedLoop) run(ctx context.Context, lanes int, call func(ctx context.Context, k int) error) step {
	start := c.Clock.Now()
	end := start.Add(c.D)
	per := make([][]sample, lanes)
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := (lane - c.First%lanes + lanes) % lanes; i < c.Max && ctx.Err() == nil; i += lanes {
				now := c.Clock.Now()
				if !now.Before(end) {
					return
				}
				s := sample{K: c.First + i, Due: now, Sent: now}
				s.Err = call(ctx, s.K)
				s.Done = c.Clock.Now()
				per[lane] = append(per[lane], s)
			}
		}(l)
	}
	wg.Wait()
	var samples []sample
	for _, p := range per {
		samples = append(samples, p...)
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a].K < samples[b].K })
	return newStep(0, start, samples)
}

// step is one leg of a served load: an open loop at Rate, or a closed
// loop (Rate 0).
type step struct {
	Rate    float64
	Start   time.Time
	Samples []sample
	Wall    time.Duration // start to last reply
}

func newStep(rate float64, start time.Time, samples []sample) step {
	st := step{Rate: rate, Start: start, Samples: samples}
	last := start
	for _, x := range samples {
		if x.Done.After(last) {
			last = x.Done
		}
	}
	st.Wall = last.Sub(start)
	return st
}

// latencies returns the due-to-done latency of every call, in ms. A
// failed call counts as missing any latency limit, so it enters as +Inf.
func (s step) latencies() []float64 {
	out := make([]float64, 0, len(s.Samples))
	for _, x := range s.Samples {
		if x.Err != nil || x.Done.IsZero() {
			out = append(out, inf)
			continue
		}
		out = append(out, ms(x.latency()))
	}
	return out
}

// lateMS returns how late the generator sent each call, in ms.
func (s step) lateMS() []float64 {
	out := make([]float64, 0, len(s.Samples))
	for _, x := range s.Samples {
		if !x.Sent.IsZero() {
			out = append(out, ms(x.late()))
		}
	}
	return out
}

// completedPerSec is the step's completion rate: the upper quartile
// over equal time windows of the calls completed per second in each, so
// a stall of the shared host over part of the leg does not move it.
func (s step) completedPerSec() float64 {
	var at []time.Time
	var one []float64
	for _, x := range s.Samples {
		if x.Err == nil && !x.Done.IsZero() {
			at, one = append(at, x.Done), append(one, 1)
		}
	}
	return windowedRate(s.Start, s.Start.Add(s.Wall), at, one)
}

// rung is one open-loop leg: N calls at Rate per second.
type rung struct {
	Rate float64
	N    int
}

// rungOf sizes a rung that lasts d at rate r.
func rungOf(r float64, d time.Duration) rung {
	n := int(r * d.Seconds())
	if n < 1 {
		n = 1
	}
	return rung{Rate: r, N: n}
}

// runRungs runs the rungs in order, each draining before the next
// starts. Calls are numbered across rungs from first, so call k always
// carries input k.
func runRungs(ctx context.Context, clk obs.Clock, sleep obs.SleepFunc, rungs []rung, first, lanes int,
	call func(ctx context.Context, k int) error) []step {
	steps := make([]step, 0, len(rungs))
	for _, r := range rungs {
		o := openLoop{Clock: clk, Sleep: sleep, Start: clk.Now(), Rate: r.Rate, First: first, N: r.N}
		steps = append(steps, newStep(r.Rate, o.Start, o.run(ctx, lanes, call)))
		first += r.N
	}
	return steps
}

// loadPlan is a served workload's load. Untraced, the nominal rate holds
// for nominalShare of the run and a closed loop measures capacity for the
// rest, with room for capMax calls per second; traced, the nominal rate
// holds for two halves, the first untraced.
type loadPlan struct {
	rungs    []rung
	capacity time.Duration
	capCalls int
}

const nominalShare = 0.75

func planLoad(rate, capMax float64, d time.Duration, traced bool) loadPlan {
	if traced {
		return loadPlan{rungs: []rung{rungOf(rate, d/2), rungOf(rate, d/2)}}
	}
	nom := time.Duration(nominalShare * float64(d))
	return loadPlan{rungs: []rung{rungOf(rate, nom)}, capacity: d - nom, capCalls: int(capMax * (d - nom).Seconds())}
}

// calls is the most calls the plan can make, so the size of its corpus.
func (p loadPlan) calls() int {
	n := p.capCalls
	for _, r := range p.rungs {
		n += r.N
	}
	return n
}
