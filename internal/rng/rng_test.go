package rng

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed sources diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestForkNamedStableAcrossDrawOrder(t *testing.T) {
	a := New(7)
	b := New(7)
	b.Float64() // perturb draw order
	b.Intn(10)
	fa, fb := a.ForkNamed("outlets"), b.ForkNamed("outlets")
	for i := 0; i < 100; i++ {
		if fa.Float64() != fb.Float64() {
			t.Fatal("ForkNamed depends on parent draw order")
		}
	}
}

func TestForkNamedDistinctLabels(t *testing.T) {
	s := New(7)
	a, b := s.ForkNamed("a"), s.ForkNamed("b")
	if a.Float64() == b.Float64() && a.Float64() == b.Float64() {
		t.Fatal("distinct labels produced identical streams")
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(1)
	for i := 0; i < 50; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	s := New(3)
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if p < 0.27 || p > 0.33 {
		t.Fatalf("Bool(0.3) empirical rate = %.3f", p)
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(5)
	const mean = 12.5
	sum := 0.0
	n := 50000
	for i := 0; i < n; i++ {
		v := s.Exponential(mean)
		if v < 0 {
			t.Fatal("Exponential returned negative value")
		}
		sum += v
	}
	got := sum / float64(n)
	if math.Abs(got-mean) > 0.5 {
		t.Fatalf("Exponential mean = %.3f, want ~%v", got, mean)
	}
}

func TestExponentialPanicsOnBadMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mean<=0")
		}
	}()
	New(1).Exponential(0)
}

func TestLogNormalMedian(t *testing.T) {
	s := New(9)
	mu := math.Log(120.0) // median 120
	vals := make([]float64, 20000)
	for i := range vals {
		vals[i] = s.LogNormal(mu, 1.2)
	}
	sort.Float64s(vals)
	med := vals[len(vals)/2]
	if med < 100 || med > 145 {
		t.Fatalf("LogNormal median = %.1f, want ~120", med)
	}
}

func TestCategoricalDistribution(t *testing.T) {
	s := New(13)
	w := []float64{1, 3, 6}
	counts := make([]int, 3)
	n := 30000
	for i := 0; i < n; i++ {
		counts[s.Categorical(w)]++
	}
	for i, want := range []float64{0.1, 0.3, 0.6} {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("Categorical[%d] = %.3f, want ~%.1f", i, got, want)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	for name, w := range map[string][]float64{
		"zero":     {0, 0},
		"negative": {1, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s weights did not panic", name)
				}
			}()
			New(1).Categorical(w)
		}()
	}
}

func TestMixture(t *testing.T) {
	s := New(17)
	choices := []WeightedChoice[string]{
		{Item: "curious", Weight: 0.7},
		{Item: "golddigger", Weight: 0.3},
	}
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[Mixture(s, choices)]++
	}
	if counts["curious"] < 6500 || counts["curious"] > 7500 {
		t.Fatalf("Mixture curious share = %d/10000, want ~7000", counts["curious"])
	}
}

func TestPickAndPickN(t *testing.T) {
	s := New(19)
	items := []int{1, 2, 3, 4, 5}
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[Pick(s, items)] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Pick covered %d/5 items over 200 draws", len(seen))
	}
	sub := PickN(s, items, 3)
	if len(sub) != 3 {
		t.Fatalf("PickN returned %d items, want 3", len(sub))
	}
	uniq := map[int]bool{}
	for _, v := range sub {
		uniq[v] = true
	}
	if len(uniq) != 3 {
		t.Fatalf("PickN returned duplicates: %v", sub)
	}
	all := PickN(s, items, 10)
	if len(all) != 5 {
		t.Fatalf("PickN(n>len) returned %d, want 5", len(all))
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(23)
	for _, mean := range []float64{0.5, 4, 60} {
		sum := 0
		n := 20000
		for i := 0; i < n; i++ {
			sum += s.Poisson(mean)
		}
		got := float64(sum) / float64(n)
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Fatalf("Poisson(%v) mean = %.3f", mean, got)
		}
	}
	if s.Poisson(0) != 0 || s.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

// Property: Categorical never returns an index with zero weight.
func TestPropertyCategoricalRespectsZeroWeights(t *testing.T) {
	s := New(29)
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]float64, len(raw))
		total := 0.0
		for i, r := range raw {
			w[i] = float64(r)
			total += w[i]
		}
		if total == 0 {
			return true // would panic; covered elsewhere
		}
		for trial := 0; trial < 20; trial++ {
			if w[s.Categorical(w)] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestForkShardStable(t *testing.T) {
	// The substream depends only on (seed, shard, n) — never on how
	// many draws the parent has made.
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		b.Float64() // advance the parent; forks must not care
	}
	for shard := 0; shard < 8; shard++ {
		x, y := a.ForkShard(shard, 8), b.ForkShard(shard, 8)
		for i := 0; i < 200; i++ {
			if x.Float64() != y.Float64() {
				t.Fatalf("shard %d substream depends on parent draw position", shard)
			}
		}
	}
}

func TestForkShardIndependent(t *testing.T) {
	// Distinct shards of the same parent must yield distinct streams,
	// and the same shard index under a different total must too.
	seen := map[int64]string{}
	for _, n := range []int{1, 2, 4, 8} {
		for shard := 0; shard < n; shard++ {
			s := New(7).ForkShard(shard, n)
			key := s.Seed()
			if prev, dup := seen[key]; dup {
				t.Fatalf("shard (%d of %d) collides with %s", shard, n, prev)
			}
			seen[key] = "shard"
		}
	}
}

func TestForkShardRejectsBadIndex(t *testing.T) {
	for _, c := range []struct{ shard, n int }{{0, 0}, {-1, 4}, {4, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ForkShard(%d, %d) did not panic", c.shard, c.n)
				}
			}()
			New(1).ForkShard(c.shard, c.n)
		}()
	}
}
