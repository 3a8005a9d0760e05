package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.N() != 4 || e.Min() != 1 || e.Max() != 4 {
		t.Fatalf("N/Min/Max = %d/%v/%v", e.N(), e.Min(), e.Max())
	}
}

func TestECDFEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewECDF(nil) did not panic")
		}
	}()
	NewECDF(nil)
}

func TestECDFDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	NewECDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("NewECDF mutated its input")
	}
}

func TestECDFPointsCollapsesDuplicates(t *testing.T) {
	e := NewECDF([]float64{1, 1, 1, 2})
	pts := e.Points()
	if len(pts) != 2 {
		t.Fatalf("Points() = %v, want 2 distinct points", pts)
	}
	if pts[0].X != 1 || math.Abs(pts[0].P-0.75) > 1e-12 {
		t.Fatalf("first point = %+v, want {1 0.75}", pts[0])
	}
	if pts[1].X != 2 || pts[1].P != 1 {
		t.Fatalf("last point = %+v, want {2 1}", pts[1])
	}
}

func TestECDFSampleGrid(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30})
	pts := e.Sample([]float64{5, 15, 35})
	wantP := []float64{0, 1.0 / 3, 1}
	for i, p := range pts {
		if math.Abs(p.P-wantP[i]) > 1e-12 {
			t.Errorf("Sample[%d].P = %v, want %v", i, p.P, wantP[i])
		}
	}
}

func TestQuantiles(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4, 5})
	if got := e.Quantile(0.5); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := e.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := e.Quantile(1); got != 5 {
		t.Fatalf("q1 = %v", got)
	}
	if got := e.Quantile(0.25); got != 2 {
		t.Fatalf("q.25 = %v", got)
	}
}

// Property: ECDF is monotone nondecreasing and bounded in [0,1].
func TestPropertyECDFMonotone(t *testing.T) {
	f := func(raw []int8, probes []int8) bool {
		if len(raw) == 0 {
			return true
		}
		sample := make([]float64, len(raw))
		for i, v := range raw {
			sample[i] = float64(v)
		}
		e := NewECDF(sample)
		xs := make([]float64, len(probes))
		for i, p := range probes {
			xs[i] = float64(p)
		}
		sort.Float64s(xs)
		prev := 0.0
		for _, x := range xs {
			p := e.At(x)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: At(Max) == 1 and At(just below Min) == 0.
func TestPropertyECDFExtremes(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		sample := make([]float64, len(raw))
		for i, v := range raw {
			sample[i] = float64(v)
		}
		e := NewECDF(sample)
		return e.At(e.Max()) == 1 && e.At(e.Min()-1) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
