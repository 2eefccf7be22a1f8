package main

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"cabd/internal/obs"
)

// fakeSleep advances the fake clock instead of waiting.
func fakeSleep(c *obs.FakeClock) obs.SleepFunc {
	return func(ctx context.Context, d time.Duration) error {
		c.Advance(d)
		return ctx.Err()
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	for _, tc := range []struct {
		name     string
		callCost time.Duration
		wantLat  []time.Duration
		wantLate []time.Duration
	}{
		// Calls slower than the 20 ms interval: each one waits behind
		// its predecessor, and that wait is part of its latency.
		{"stalled", 30 * time.Millisecond,
			[]time.Duration{30, 40, 50, 60, 70}, []time.Duration{0, 10, 20, 30, 40}},
		// Calls faster than the interval: the generator sleeps until
		// each due time, so latency is the call's own cost.
		{"idle", 10 * time.Millisecond,
			[]time.Duration{10, 10, 10, 10, 10}, []time.Duration{0, 0, 0, 0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := obs.NewFakeClock(time.Time{})
			o := openLoop{Clock: clk, Sleep: fakeSleep(clk), Start: clk.Now(), Rate: 50, N: 5}
			got := o.run(context.Background(), 1, func(ctx context.Context, k int) error {
				clk.Advance(tc.callCost)
				return nil
			})
			for k, s := range got {
				if want := o.Start.Add(time.Duration(k) * 20 * time.Millisecond); !s.Due.Equal(want) {
					t.Errorf("call %d due %v, want %v", k, s.Due, want)
				}
				if s.latency() != tc.wantLat[k]*time.Millisecond {
					t.Errorf("call %d latency %v, want %v", k, s.latency(), tc.wantLat[k]*time.Millisecond)
				}
				if s.late() != tc.wantLate[k]*time.Millisecond {
					t.Errorf("call %d late %v, want %v", k, s.late(), tc.wantLate[k]*time.Millisecond)
				}
			}
		})
	}
}

func TestOpenLoopLanesKeepOrder(t *testing.T) {
	clk := obs.NewFakeClock(time.Time{})
	o := openLoop{Clock: clk, Sleep: func(ctx context.Context, d time.Duration) error { return nil }, Start: clk.Now(), Rate: 1000, First: 7, N: 40}
	var mu sync.Mutex
	seen := make([][]int, 2)
	got := o.run(context.Background(), 2, func(ctx context.Context, k int) error {
		mu.Lock()
		defer mu.Unlock()
		seen[k%2] = append(seen[k%2], k)
		return nil
	})
	checkLanes(t, seen, 20)
	for i, s := range got {
		if s.K != 7+i {
			t.Fatalf("sample %d is call %d, want %d", i, s.K, 7+i)
		}
	}
}

// checkLanes checks that each lane sent `want` calls in increasing order.
func checkLanes(t *testing.T, seen [][]int, want int) {
	t.Helper()
	for lane, ks := range seen {
		if len(ks) != want {
			t.Fatalf("lane %d sent %d calls, want %d", lane, len(ks), want)
		}
		for i := 1; i < len(ks); i++ {
			if ks[i] <= ks[i-1] {
				t.Fatalf("lane %d sent call %d after %d", lane, ks[i], ks[i-1])
			}
		}
	}
}

func TestClosedLoop(t *testing.T) {
	t.Run("stops at its duration", func(t *testing.T) {
		// One lane of 10 ms calls for 300 ms: thirty calls back to back,
		// each due when sent, completing 100 per second.
		clk := obs.NewFakeClock(time.Time{})
		c := closedLoop{Clock: clk, D: 300 * time.Millisecond, First: 3, Max: 1000}
		st := c.run(context.Background(), 1, func(ctx context.Context, k int) error {
			clk.Advance(10 * time.Millisecond)
			return nil
		})
		if len(st.Samples) != 30 {
			t.Fatalf("%d calls, want 30", len(st.Samples))
		}
		for i, s := range st.Samples {
			if s.K != 3+i || s.late() != 0 || s.latency() != 10*time.Millisecond {
				t.Fatalf("sample %d: call %d, late %v, latency %v", i, s.K, s.late(), s.latency())
			}
		}
		if r := st.completedPerSec(); math.Abs(r-100) > 1e-6 {
			t.Fatalf("completed %v/s, want 100", r)
		}
	})
	t.Run("stops at its corpus and keeps lane order", func(t *testing.T) {
		clk := obs.NewFakeClock(time.Time{})
		c := closedLoop{Clock: clk, D: time.Second, First: 4, Max: 30}
		var mu sync.Mutex
		seen := make([][]int, 2)
		st := c.run(context.Background(), 2, func(ctx context.Context, k int) error {
			mu.Lock()
			defer mu.Unlock()
			seen[k%2] = append(seen[k%2], k)
			return nil
		})
		checkLanes(t, seen, 15)
		for i, s := range st.Samples {
			if s.K != 4+i {
				t.Fatalf("sample %d is call %d, want %d", i, s.K, 4+i)
			}
		}
	})
}
