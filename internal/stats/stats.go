package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a sample.
// The zero value is unusable; construct with NewECDF.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF over the sample (copied, then sorted). It
// panics on an empty sample: an empty CDF has no meaning in any of the
// paper's plots.
func NewECDF(sample []float64) *ECDF {
	if len(sample) == 0 {
		panic("stats: NewECDF of empty sample")
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns P(X <= x), the fraction of the sample at or below x.
func (e *ECDF) At(x float64) float64 {
	// First index with value > x.
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest-rank with
// linear interpolation.
func (e *ECDF) Quantile(q float64) float64 {
	n := len(e.sorted)
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return e.sorted[lo]
	}
	frac := pos - float64(lo)
	return e.sorted[lo]*(1-frac) + e.sorted[hi]*frac
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// Min and Max return the sample extremes.
func (e *ECDF) Min() float64 { return e.sorted[0] }

// Max returns the largest sample value.
func (e *ECDF) Max() float64 { return e.sorted[len(e.sorted)-1] }

// Points returns (x, P(X<=x)) pairs suitable for plotting the CDF as a
// step function, one point per distinct sample value.
func (e *ECDF) Points() []CDFPoint {
	var out []CDFPoint
	n := float64(len(e.sorted))
	for i := 0; i < len(e.sorted); i++ {
		// advance to last duplicate
		if i+1 < len(e.sorted) && e.sorted[i+1] == e.sorted[i] {
			continue
		}
		out = append(out, CDFPoint{X: e.sorted[i], P: float64(i+1) / n})
	}
	return out
}

// Sample returns the CDF evaluated at the given xs (convenience for
// fixed-grid figure series).
func (e *ECDF) Sample(xs []float64) []CDFPoint {
	out := make([]CDFPoint, len(xs))
	for i, x := range xs {
		out[i] = CDFPoint{X: x, P: e.At(x)}
	}
	return out
}

// CDFPoint is one point of a CDF series.
type CDFPoint struct {
	X float64
	P float64
}
