package stats

import (
	"math"
	"testing"
	"time"

	"repro/internal/rng"
)

// TestLatencyHistEmpty: the zero histogram reports zeros everywhere
// instead of panicking — a load-gen connection that never completed a
// request must merge and render cleanly.
func TestLatencyHistEmpty(t *testing.T) {
	var h LatencyHist
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatalf("empty hist not all-zero: count=%d max=%v", h.Count(), h.Max())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%g) = %v, want 0", q, got)
		}
	}
	var other LatencyHist
	other.Merge(&h) // merging empties is a no-op, not a corruption
	if other.Count() != 0 {
		t.Fatalf("empty merge produced count %d", other.Count())
	}
}

// TestLatencyHistOneSample: every quantile of a single observation is
// that observation (extreme clamping), and so is the max.
func TestLatencyHistOneSample(t *testing.T) {
	var h LatencyHist
	h.Record(1234567 * time.Nanosecond)
	want := 1234567 * time.Nanosecond
	if h.Count() != 1 || h.Max() != want {
		t.Fatalf("one-sample summary wrong: count=%d max=%v", h.Count(), h.Max())
	}
	for _, q := range []float64{0, 0.001, 0.5, 0.99, 1, 2} {
		if got := h.Quantile(q); got != want {
			t.Fatalf("one-sample Quantile(%g) = %v, want %v", q, got, want)
		}
	}
}

// TestLatencyHistQuantileMonotonic: for any sample, q1 <= q2 implies
// Quantile(q1) <= Quantile(q2), and all quantiles stay inside
// [Quantile(0), Max].
func TestLatencyHistQuantileMonotonic(t *testing.T) {
	src := rng.New(7)
	var h LatencyHist
	for i := 0; i < 5000; i++ {
		// Log-uniform spread over ~6 decades, the shape real
		// latency tails have.
		v := math.Exp(src.Uniform(0, 14))
		h.Record(time.Duration(v))
	}
	prev := time.Duration(-1)
	for q := 0.0; q <= 1.0; q += 0.001 {
		cur := h.Quantile(q)
		if cur < prev {
			t.Fatalf("Quantile(%g) = %v < previous %v", q, cur, prev)
		}
		if cur < h.Quantile(0) || cur > h.Max() {
			t.Fatalf("Quantile(%g) = %v outside [%v, %v]", q, cur, h.Quantile(0), h.Max())
		}
		prev = cur
	}
}

// TestLatencyHistRelativeError: the bucketing contract — any reported
// quantile is within 2^-histSubBits of an actual sample value.
func TestLatencyHistRelativeError(t *testing.T) {
	for _, v := range []int64{1, 31, 32, 33, 1000, 123456, 1 << 20, 987654321, 1 << 40} {
		var h LatencyHist
		h.Record(time.Duration(v))
		got := int64(h.Quantile(0.5))
		if got < v {
			t.Fatalf("Quantile(0.5) of single value %d = %d, reported below the sample", v, got)
		}
		if rel := float64(got-v) / float64(v); rel > 1.0/float64(histSubCount) {
			t.Fatalf("value %d reported as %d: relative error %.4f > %.4f", v, got, rel, 1.0/float64(histSubCount))
		}
	}
}

// TestLatencyHistMergeMatchesSingle: recording a sample set across N
// per-connection histograms and merging equals recording it all into
// one — the exactness the load generator's per-conn split relies on.
func TestLatencyHistMergeMatchesSingle(t *testing.T) {
	src := rng.New(11)
	const conns = 8
	var whole LatencyHist
	parts := make([]LatencyHist, conns)
	for i := 0; i < 10000; i++ {
		v := time.Duration(math.Exp(src.Uniform(2, 16)))
		whole.Record(v)
		parts[i%conns].Record(v)
	}
	var merged LatencyHist
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if merged.Count() != whole.Count() || merged.Max() != whole.Max() {
		t.Fatalf("merged summary diverges: merged count=%d max=%v, whole count=%d max=%v",
			merged.Count(), merged.Max(), whole.Count(), whole.Max())
	}
	for q := 0.0; q <= 1.0; q += 0.0005 {
		if m, w := merged.Quantile(q), whole.Quantile(q); m != w {
			t.Fatalf("Quantile(%g): merged %v != whole %v", q, m, w)
		}
	}
}

// TestLatencyHistNegativeClamps: a negative duration (clock skew)
// records as zero rather than corrupting a bucket index.
func TestLatencyHistNegativeClamps(t *testing.T) {
	var h LatencyHist
	h.Record(-5 * time.Second)
	if h.Count() != 1 || h.Quantile(0) != 0 || h.Max() != 0 {
		t.Fatalf("negative record: count=%d min=%v max=%v", h.Count(), h.Quantile(0), h.Max())
	}
}

// TestLatencyHistBucketEdges pins the index/upper-bound pair at the
// group boundaries where off-by-ones live.
func TestLatencyHistBucketEdges(t *testing.T) {
	for _, v := range []int64{0, 1, histSubCount - 1, histSubCount, 2*histSubCount - 1, 2 * histSubCount, 1 << 30} {
		i := histIndex(v)
		if up := histUpper(i); up < v {
			t.Fatalf("histUpper(histIndex(%d)) = %d < value", v, up)
		}
		if i > 0 && histUpper(i-1) >= v {
			t.Fatalf("value %d fits bucket %d but lower bucket %d has upper %d", v, i, i-1, histUpper(i-1))
		}
	}
}
