package analysis

import (
	"sort"

	"repro/internal/rng"
)

// Two-sample Cramér–von Mises test, Anderson's (1962) version — the
// significance test of §4.5. The paper rejects the null hypothesis
// (the two distance vectors share a distribution) when p < 0.01: it
// rejects for paste-site groups (p≈0.0017 UK, p≈7e-7 US) and fails to
// reject for forum groups (p≈0.27 both).
//
// The statistic follows Anderson's rank formulation:
//
//	U  = N·Σᵢ(rᵢ−i)² + M·Σⱼ(sⱼ−j)²
//	T  = U / (N·M·(N+M)) − (4·M·N − 1) / (6·(M+N))
//
// where rᵢ are the ranks of the first sample in the pooled ordering
// and sⱼ the ranks of the second. P-values come from a seeded
// permutation test (exact in distribution, stdlib-only), with the
// asymptotic ω² tail available as a cross-check.

// CvMResult reports the test.
type CvMResult struct {
	T           float64 // Anderson two-sample statistic
	P           float64 // permutation p-value
	Resamples   int
	RejectAt001 bool // p < 0.01, the paper's threshold
}

// CvMStatistic computes Anderson's two-sample T for samples x and y.
// It panics if either sample is empty.
func CvMStatistic(x, y []float64) float64 {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		panic("analysis: CvMStatistic requires non-empty samples")
	}
	type obs struct {
		v     float64
		first bool
	}
	pool := make([]obs, 0, n+m)
	for _, v := range x {
		pool = append(pool, obs{v, true})
	}
	for _, v := range y {
		pool = append(pool, obs{v, false})
	}
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].v < pool[j].v })

	var u float64
	xi, yj := 0, 0
	for rank1, o := range pool {
		rank := float64(rank1 + 1)
		if o.first {
			xi++
			d := rank - float64(xi)
			u += float64(n) * d * d
		} else {
			yj++
			d := rank - float64(yj)
			u += float64(m) * d * d
		}
	}
	nf, mf := float64(n), float64(m)
	t := u/(nf*mf*(nf+mf)) - (4*mf*nf-1)/(6*(mf+nf))
	return t
}

// CvMTest runs the statistic plus a permutation p-value with the given
// number of resamples (0 selects 2000). The permutation distribution
// is generated deterministically from seed.
func CvMTest(x, y []float64, resamples int, seed int64) CvMResult {
	if resamples <= 0 {
		resamples = 2000
	}
	t0 := CvMStatistic(x, y)
	src := rng.New(seed)
	pool := make([]float64, 0, len(x)+len(y))
	pool = append(pool, x...)
	pool = append(pool, y...)
	geq := 0
	px := make([]float64, len(x))
	py := make([]float64, len(y))
	for i := 0; i < resamples; i++ {
		src.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		copy(px, pool[:len(x)])
		copy(py, pool[len(x):])
		if CvMStatistic(px, py) >= t0 {
			geq++
		}
	}
	// Add-one smoothing keeps p strictly positive (standard for
	// permutation tests).
	p := (float64(geq) + 1) / (float64(resamples) + 1)
	return CvMResult{T: t0, P: p, Resamples: resamples, RejectAt001: p < 0.01}
}
