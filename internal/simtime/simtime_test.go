package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)

func TestClockNow(t *testing.T) {
	c := NewClock(t0)
	if !c.Now().Equal(t0) {
		t.Fatalf("Now() = %v, want %v", c.Now(), t0)
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock(t0)
	c.advance(t0.Add(time.Hour).UnixNano())
	if got := c.Now(); !got.Equal(t0.Add(time.Hour)) {
		t.Fatalf("Now() = %v, want %v", got, t0.Add(time.Hour))
	}
}

func TestClockBackwardsPanics(t *testing.T) {
	c := NewClock(t0)
	defer func() {
		if recover() == nil {
			t.Fatal("advancing backwards did not panic")
		}
	}()
	c.advance(t0.Add(-time.Second).UnixNano())
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(NewClock(t0))
	var order []string
	s.At(t0.Add(3*time.Hour), "c", func(time.Time) { order = append(order, "c") })
	s.At(t0.Add(1*time.Hour), "a", func(time.Time) { order = append(order, "a") })
	s.At(t0.Add(2*time.Hour), "b", func(time.Time) { order = append(order, "b") })
	s.RunUntil(t0.Add(24 * time.Hour))
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulerTieBreakBySeq(t *testing.T) {
	s := NewScheduler(NewClock(t0))
	var order []int
	when := t0.Add(time.Minute)
	for i := 0; i < 10; i++ {
		i := i
		s.At(when, "tie", func(time.Time) { order = append(order, i) })
	}
	s.RunUntil(when)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order = %v, want ascending", order)
		}
	}
}

func TestSchedulerClockAtEventTime(t *testing.T) {
	s := NewScheduler(NewClock(t0))
	var seen time.Time
	s.After(90*time.Minute, "probe", func(now time.Time) { seen = now })
	s.RunFor(2 * time.Hour)
	if !seen.Equal(t0.Add(90 * time.Minute)) {
		t.Fatalf("event saw now=%v, want %v", seen, t0.Add(90*time.Minute))
	}
	if !s.Now().Equal(t0.Add(2 * time.Hour)) {
		t.Fatalf("clock after RunFor = %v, want %v", s.Now(), t0.Add(2*time.Hour))
	}
}

func TestSchedulerRunUntilLeavesLaterEvents(t *testing.T) {
	s := NewScheduler(NewClock(t0))
	ran := 0
	s.At(t0.Add(time.Hour), "in", func(time.Time) { ran++ })
	s.At(t0.Add(48*time.Hour), "out", func(time.Time) { ran++ })
	n := s.RunUntil(t0.Add(24 * time.Hour))
	if n != 1 || ran != 1 {
		t.Fatalf("RunUntil executed %d (cb %d), want 1", n, ran)
	}
	if s.Len() != 1 {
		t.Fatalf("pending = %d, want 1", s.Len())
	}
}

func TestEvery(t *testing.T) {
	s := NewScheduler(NewClock(t0))
	n := 0
	stop := s.Every(10*time.Minute, "scan", func(time.Time) { n++ })
	s.RunFor(time.Hour)
	if n != 6 {
		t.Fatalf("ticks in 1h at 10m = %d, want 6", n)
	}
	stop()
	s.RunFor(time.Hour)
	if n != 6 {
		t.Fatalf("ticks after stop = %d, want 6", n)
	}
}

func TestEveryStopFromWithinTick(t *testing.T) {
	s := NewScheduler(NewClock(t0))
	n := 0
	var stop func()
	stop = s.Every(time.Minute, "self-stop", func(time.Time) {
		n++
		if n == 3 {
			stop()
		}
	})
	s.RunFor(time.Hour)
	if n != 3 {
		t.Fatalf("ticks = %d, want 3 (stopped from within)", n)
	}
}

func TestEveryInvalidInterval(t *testing.T) {
	s := NewScheduler(NewClock(t0))
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	s.Every(0, "bad", func(time.Time) {})
}

func TestAtNilFuncPanics(t *testing.T) {
	s := NewScheduler(NewClock(t0))
	defer func() {
		if recover() == nil {
			t.Fatal("At(nil fn) did not panic")
		}
	}()
	s.At(t0, "nil", nil)
}

func TestPastDueEventObservesCurrentTime(t *testing.T) {
	s := NewScheduler(NewClock(t0))
	s.RunUntil(t0.Add(time.Hour)) // clock now t0+1h
	var seen time.Time
	s.At(t0.Add(time.Minute), "late", func(now time.Time) { seen = now })
	s.Step()
	if !seen.Equal(t0.Add(time.Hour)) {
		t.Fatalf("past-due event saw %v, want clock time %v", seen, t0.Add(time.Hour))
	}
}

func TestFiredCounter(t *testing.T) {
	s := NewScheduler(NewClock(t0))
	for i := 0; i < 7; i++ {
		s.After(time.Duration(i)*time.Minute, "n", func(time.Time) {})
	}
	s.RunFor(time.Hour)
	if s.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", s.Fired())
	}
}

// Property: for any set of offsets, events fire in nondecreasing time
// order and the clock never moves backwards.
func TestPropertyEventsFireInOrder(t *testing.T) {
	f := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		s := NewScheduler(NewClock(t0))
		var fired []time.Time
		for _, off := range offsets {
			d := time.Duration(off) * time.Second
			s.After(d, "p", func(now time.Time) { fired = append(fired, now) })
		}
		s.RunUntil(t0.Add(time.Duration(1<<16) * time.Second))
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].Before(fired[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: RunUntil(d) then RunUntil(d') for d' >= d is equivalent to
// a single RunUntil(d') in terms of events executed.
func TestPropertySplitRunEquivalence(t *testing.T) {
	f := func(offsets []uint16, splitAt uint16) bool {
		run := func(split bool) int {
			s := NewScheduler(NewClock(t0))
			total := 0
			for _, off := range offsets {
				s.After(time.Duration(off)*time.Second, "p", func(time.Time) {})
			}
			end := t0.Add(time.Duration(1<<16) * time.Second)
			if split {
				total += s.RunUntil(t0.Add(time.Duration(splitAt) * time.Second))
			}
			total += s.RunUntil(end)
			return total
		}
		return run(true) == run(false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
