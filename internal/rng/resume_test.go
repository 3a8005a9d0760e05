package rng

import "testing"

// TestPosCountsEverySampler: every sampler advances Pos, and a fresh
// source skipped to the recorded position continues the stream
// bit-identically — the property the snapshot engine's stream
// serialization rests on.
func TestPosCountsEverySampler(t *testing.T) {
	s := New(1234)
	if s.Pos() != 0 {
		t.Fatalf("fresh source at pos %d, want 0", s.Pos())
	}
	// Burn a mixed workload through every sampler family, including
	// the variable-consumption ones (Normal/Exponential use rejection
	// sampling; Zipf re-draws internally).
	z := s.Zipf(1.5, 100)
	for i := 0; i < 500; i++ {
		s.Float64()
		s.Intn(10)
		s.Int63()
		s.Normal(0, 1)
		s.Exponential(2)
		s.LogNormal(0, 1)
		s.Pareto(1, 2)
		s.Categorical([]float64{1, 2, 3})
		z.Uint64()
		s.Perm(5)
		s.Shuffle(4, func(i, j int) {})
	}
	pos := s.Pos()
	if pos == 0 {
		t.Fatal("samplers consumed no raw draws")
	}

	resumed := New(s.Seed())
	resumed.SkipTo(pos)
	if resumed.Pos() != pos {
		t.Fatalf("SkipTo landed at %d, want %d", resumed.Pos(), pos)
	}
	for i := 0; i < 1000; i++ {
		if a, b := s.Int63(), resumed.Int63(); a != b {
			t.Fatalf("draw %d diverged after resume: %d vs %d", i, a, b)
		}
		if a, b := s.Normal(0, 1), resumed.Normal(0, 1); a != b {
			t.Fatalf("normal draw %d diverged after resume: %g vs %g", i, a, b)
		}
	}
	if s.Pos() != resumed.Pos() {
		t.Fatalf("positions diverged: %d vs %d", s.Pos(), resumed.Pos())
	}
}

// TestSkipTo: skipping forward is equivalent to drawing, and skipping
// backwards panics (streams are forward-only).
func TestSkipTo(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 37; i++ {
		a.Int63()
	}
	b.SkipTo(a.Pos())
	if x, y := a.Int63(), b.Int63(); x != y {
		t.Fatalf("SkipTo diverged: %d vs %d", x, y)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SkipTo backwards did not panic")
		}
	}()
	b.SkipTo(0)
}

// TestForkPositionIndependence: named and shard forks depend only on
// the parent's seed, never its position, so snapshot restoration can
// re-derive them without replaying the parent's draw history.
func TestForkPositionIndependence(t *testing.T) {
	a, b := New(99), New(99)
	for i := 0; i < 17; i++ {
		b.Float64()
	}
	if x, y := a.ForkNamed("x").Int63(), b.ForkNamed("x").Int63(); x != y {
		t.Fatalf("ForkNamed depends on parent position: %d vs %d", x, y)
	}
	if x, y := a.ForkShard(2, 8).Int63(), b.ForkShard(2, 8).Int63(); x != y {
		t.Fatalf("ForkShard depends on parent position: %d vs %d", x, y)
	}
}
