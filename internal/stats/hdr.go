package stats

import (
	"math"
	"math/bits"
	"time"
)

// LatencyHist is an HDR-style log-linear latency histogram: fixed
// memory, lock-free for a single writer, and mergeable across writers.
// Values are bucketed by the top histSubBits+1 bits of their nanosecond
// count, so the relative quantile error is bounded by 2^-histSubBits
// (~3.1%) at any magnitude from 1ns to ~292 years. The live-fleet load
// generator keeps one histogram per connection and merges them after
// the run — Merge is exact (bucket counts add), so the merged quantiles
// equal those of a single histogram fed every sample.
//
// The zero value is an empty, ready-to-use histogram.
type LatencyHist struct {
	counts [histNBuckets]int64
	total  int64
	max    int64
	min    int64 // valid only when total > 0
}

const (
	// histSubBits sets the linear resolution inside each power-of-two
	// group: 2^histSubBits sub-buckets, hence <= 2^-histSubBits
	// relative error on any reported quantile.
	histSubBits  = 5
	histSubCount = 1 << histSubBits
	// Groups 1..(63-histSubBits) cover values >= histSubCount up to
	// the int64 range; group 0 is the exact linear range [0,
	// histSubCount).
	histGroups   = 63 - histSubBits
	histNBuckets = histSubCount * (histGroups + 1)
)

// histIndex maps a non-negative nanosecond value to its bucket.
func histIndex(v int64) int {
	u := uint64(v)
	if u < histSubCount {
		return int(u)
	}
	lz := bits.Len64(u)       // position of the highest set bit, 1-based
	group := lz - histSubBits // >= 1 for u >= histSubCount
	m := u >> (group - 1)     // top histSubBits+1 bits: [histSubCount, 2*histSubCount)
	return group*histSubCount + int(m) - histSubCount
}

// histUpper returns the largest value a bucket can hold — the value
// Quantile reports for ranks landing in it.
func histUpper(i int) int64 {
	if i < histSubCount {
		return int64(i)
	}
	group := i / histSubCount
	m := uint64(histSubCount + i%histSubCount)
	return int64(m<<(group-1) + 1<<(group-1) - 1)
}

// Record adds one observation. Negative durations clamp to zero (a
// latency below clock resolution, not an error).
func (h *LatencyHist) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.total++
}

// Merge folds o into h. Bucket counts add exactly, so quantiles of the
// merge equal quantiles of one histogram fed both sample sets.
func (h *LatencyHist) Merge(o *LatencyHist) {
	if o == nil || o.total == 0 {
		return
	}
	for i, c := range o.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
}

// Count returns the number of recorded observations.
func (h *LatencyHist) Count() int64 { return h.total }

// Max returns the exact largest recorded value (0 when empty).
func (h *LatencyHist) Max() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.max)
}

// Quantile returns the q-quantile by rank over the bucketed counts:
// the bucket upper bound holding the ceil(q*n)-th smallest sample,
// clamped to the exact observed extremes so Quantile(0) is the
// smallest sample and Quantile(1) == Max. q outside [0,1] clamps; an empty histogram
// reports 0. Monotone in q by construction (cumulative rank walk).
func (h *LatencyHist) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(h.min)
	}
	rank := int64(math.Ceil(q * float64(h.total)))
	if rank > h.total {
		rank = h.total
	}
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			v := histUpper(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}
