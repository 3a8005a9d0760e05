// Package rng provides deterministic pseudo-randomness and the
// sampling distributions the honeynet simulation is built from.
//
// All stochastic behaviour in the repository — attacker arrival
// processes, session durations, origin selection, corpus generation —
// draws from a *Source seeded at experiment start, so a given seed
// reproduces an entire seven-month run bit-for-bit. Source wraps
// math/rand with the distribution samplers the paper's workloads need
// (exponential inter-arrival times, log-normal session lengths,
// categorical mixtures).
package rng

import (
	"fmt"
	"math"
	"math/rand"
)

// Source is a deterministic random source. It is not safe for
// concurrent use; the simulation is single-threaded by design (see
// package simtime), and independent components should Fork their own
// sources instead of sharing one.
type Source struct {
	r    *rand.Rand
	cs   *countedSource
	seed int64
}

// countedSource wraps the underlying math/rand source and counts how
// many raw 64-bit draws have been consumed. Every sampler on Source —
// Float64, NormFloat64, Shuffle — bottoms out in Int63/Uint64
// calls on this source, and for math/rand's generator both consume
// exactly one generator step. The stream position is therefore the
// pair (seed, n), which is what lets the snapshot engine serialize a
// live stream and SkipTo fast-forward an identical one on resume.
type countedSource struct {
	s rand.Source64
	n uint64
}

func (c *countedSource) Int63() int64 {
	c.n++
	return c.s.Int63()
}

func (c *countedSource) Uint64() uint64 {
	c.n++
	return c.s.Uint64()
}

func (c *countedSource) Seed(seed int64) {
	c.s.Seed(seed)
	c.n = 0
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	cs := &countedSource{s: rand.NewSource(seed).(rand.Source64)}
	return &Source{r: rand.New(cs), cs: cs, seed: seed}
}

// Seed returns the seed the source was created with.
func (s *Source) Seed() int64 { return s.seed }

// Pos returns the number of raw 64-bit draws consumed so far — the
// stream position New(Seed()) fast-forwarded with SkipTo resumes from.
func (s *Source) Pos() uint64 { return s.cs.n }

// SkipTo fast-forwards the source to the given stream position (as
// reported by Pos), so it continues the stream exactly where a live
// source that had made pos raw draws would — the snapshot/resume path
// restores every serialized stream through this. It panics if the
// source has already advanced past it: streams only move forward.
func (s *Source) SkipTo(pos uint64) {
	if s.cs.n > pos {
		panic(fmt.Sprintf("rng: SkipTo(%d) behind current position %d", pos, s.cs.n))
	}
	for s.cs.n < pos {
		s.cs.Uint64()
	}
}

// Fork derives an independent child source. The child's stream is a
// pure function of the parent's state at the point of the call, so
// forks taken in a fixed order are reproducible.
func (s *Source) Fork() *Source {
	return New(s.r.Int63())
}

// ForkNamed derives a child source whose stream depends only on the
// parent's seed and a label, not on how many draws the parent has
// made. Use it to give each subsystem (outlets, malware, per-account
// attacker populations) a stable stream that survives refactoring of
// unrelated draw order.
func (s *Source) ForkNamed(label string) *Source {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return New(int64(h) ^ s.seed)
}

// splitmix64 is the finalizer of the SplitMix64 generator — a strong
// 64-bit mixing function used to derive decorrelated substream seeds
// from structured inputs (seed, shard index).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ForkShard derives the shard-th of n stable, mutually independent
// substreams. The child's stream is a pure function of (parent seed,
// shard, n) — not of the parent's draw position and not of which
// worker executes the shard — so a fixed experiment seed reproduces a
// sharded run bit-for-bit for a given partition layout. It panics on
// an out-of-range shard index.
func (s *Source) ForkShard(shard, n int) *Source {
	if n <= 0 || shard < 0 || shard >= n {
		panic(fmt.Sprintf("rng: ForkShard(%d, %d) out of range", shard, n))
	}
	h := splitmix64(uint64(s.seed))
	h = splitmix64(h ^ uint64(shard)<<1 ^ 0xA5A5A5A5)
	h = splitmix64(h ^ uint64(n)<<17)
	return New(int64(h))
}

// Float64 returns a uniform value in [0,1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (s *Source) Int63() int64 { return s.r.Int63() }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.r.Float64() < p
}

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Normal returns a normally distributed value.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// Exponential samples an exponential distribution with the given mean
// (i.e. rate 1/mean). Exponential inter-arrival gaps make attacker
// visits a Poisson process, the standard model for independent
// arrivals such as paste-site readers finding a leak.
func (s *Source) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exponential requires positive mean")
	}
	return s.r.ExpFloat64() * mean
}

// LogNormal samples exp(N(mu, sigma)). Heavy-tailed session lengths —
// most accesses last minutes, a long tail returns for days (paper
// §4.3, Figure 1) — are modelled log-normally.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements via swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// Pick returns a uniformly chosen element of items. It panics on an
// empty slice.
func Pick[T any](s *Source, items []T) T {
	if len(items) == 0 {
		panic("rng: Pick from empty slice")
	}
	return items[s.Intn(len(items))]
}

// PickN returns n distinct uniformly chosen elements (or all items if
// n >= len(items)), in random order.
func PickN[T any](s *Source, items []T, n int) []T {
	if n >= len(items) {
		out := make([]T, len(items))
		copy(out, items)
		s.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	idx := s.Perm(len(items))[:n]
	out := make([]T, 0, n)
	for _, i := range idx {
		out = append(out, items[i])
	}
	return out
}

// Categorical samples an index with probability proportional to the
// given non-negative weights. It panics if all weights are zero or a
// weight is negative. Taxonomy mixes per outlet (Figure 2) are
// categorical draws.
func (s *Source) Categorical(weights []float64) int {
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("rng: negative or NaN weight at %d", i))
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Categorical with zero total weight")
	}
	x := s.r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if x < acc {
			return i
		}
	}
	return len(weights) - 1 // float round-off
}

// WeightedChoice is a labelled weight for Mixture.
type WeightedChoice[T any] struct {
	Item   T
	Weight float64
}

// Mixture samples one item from labelled weights.
func Mixture[T any](s *Source, choices []WeightedChoice[T]) T {
	w := make([]float64, len(choices))
	for i, c := range choices {
		w[i] = c.Weight
	}
	return choices[s.Categorical(w)].Item
}

// Poisson samples a Poisson-distributed count with the given mean,
// using inversion for small means and normal approximation above 30.
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(math.Round(s.Normal(mean, math.Sqrt(mean))))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
