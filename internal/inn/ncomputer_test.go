package inn

import (
	"math/rand"
	"reflect"
	"testing"

	"cabd/internal/series"
)

// nFromSeries builds equivalent ND-indexed and 2-D-indexed Computers over
// the same series for differential testing.
func nFromSeries(s *series.Series) (*Computer, *Computer) {
	pts2 := s.Points()
	ptsN := make([][]float64, len(pts2))
	for i, p := range pts2 {
		ptsN[i] = []float64{p[0], p[1]}
	}
	return NewComputerND(ptsN), NewComputer(pts2)
}

func TestNComputerMatches2DComputer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 400)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	for i := 200; i < 206; i++ {
		vals[i] += 25
	}
	s := series.New("diff", vals)
	nc, c := nFromSeries(s)
	tlim := c.RangeLimit(0)
	if nc.RangeLimit(0) != tlim {
		t.Fatalf("range limits differ: %d vs %d", nc.RangeLimit(0), tlim)
	}
	for i := 0; i < 400; i += 7 {
		if !reflect.DeepEqual(nc.Binary(i, tlim), c.Binary(i, tlim)) {
			t.Fatalf("Binary INN differs at %d: %v vs %v",
				i, nc.Binary(i, tlim), c.Binary(i, tlim))
		}
		if !reflect.DeepEqual(nc.Minimal(i, tlim), c.Minimal(i, tlim)) {
			t.Fatalf("Minimal INN differs at %d", i)
		}
		if !reflect.DeepEqual(nc.MutualSet(i, tlim), c.MutualSet(i, tlim)) {
			t.Fatalf("MutualSet differs at %d", i)
		}
	}
}

func TestNComputerHigherDimensions(t *testing.T) {
	// A 3-D group: mutual neighborhoods must find the group in the
	// joint space even though each single dimension is ambiguous.
	rng := rand.New(rand.NewSource(2))
	n := 300
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{float64(i) * 0.01, rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	for i := 150; i < 156; i++ {
		pts[i][1] += 12
		pts[i][2] += 12
		pts[i][3] += 12
	}
	c := NewComputerND(pts)
	got := c.Binary(152, c.RangeLimit(0))
	want := map[int]bool{150: true, 151: true, 153: true, 154: true, 155: true}
	for _, j := range got {
		if !want[j] {
			t.Errorf("non-member %d in 3-D group INN %v", j, got)
		}
	}
	if len(got) < 4 {
		t.Errorf("3-D group INN too small: %v", got)
	}
}

func TestNComputerDegenerate(t *testing.T) {
	empty := NewComputerND(nil)
	if empty.Len() != 0 || empty.Minimal(0, 5) != nil {
		t.Error("empty ND computer misbehaves")
	}
	one := NewComputerND([][]float64{{0, 0}})
	if one.Binary(0, 3) != nil {
		t.Error("singleton INN should be nil")
	}
}
