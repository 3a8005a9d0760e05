package simtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testStart() time.Time {
	return time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)
}

func TestShardSetRunsAllToDeadline(t *testing.T) {
	start := testStart()
	deadline := start.Add(24 * time.Hour)
	set := NewShardSet()
	var fired [4]int
	for i := 0; i < 4; i++ {
		i := i
		s := NewScheduler(NewClock(start))
		s.Every(time.Hour, "tick", func(time.Time) { fired[i]++ })
		set.Add(s)
	}
	total := set.RunUntil(deadline, NewWorkerPool(4))
	for i, n := range fired {
		if n != 24 {
			t.Fatalf("shard %d fired %d events, want 24", i, n)
		}
	}
	if total != 4*24 {
		t.Fatalf("total = %d, want %d", total, 4*24)
	}
	for i := 0; i < set.Len(); i++ {
		if now := set.Scheduler(i).Now(); !now.Equal(deadline) {
			t.Fatalf("shard %d clock at %v, want %v", i, now, deadline)
		}
	}
	if set.Fired() != 4*24 {
		t.Fatalf("Fired() = %d", set.Fired())
	}
	if set.Pending() == 0 {
		t.Fatal("Every loops should leave one pending event per shard")
	}
}

func TestShardSetWorkerCountsEquivalent(t *testing.T) {
	// The same shard workloads must produce identical per-shard event
	// counts regardless of the pool size.
	run := func(workers int) [3]uint64 {
		start := testStart()
		set := NewShardSet()
		for i := 0; i < 3; i++ {
			s := NewScheduler(NewClock(start))
			interval := time.Duration(i+1) * time.Hour
			s.Every(interval, "tick", func(time.Time) {})
			set.Add(s)
		}
		set.RunUntil(start.Add(48*time.Hour), NewWorkerPool(workers))
		var out [3]uint64
		for i := 0; i < 3; i++ {
			out[i] = set.Scheduler(i).Fired()
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 3, 0, 16} {
		if got := run(workers); got != serial {
			t.Fatalf("pool of %d fired %v, pool of 1 fired %v", workers, got, serial)
		}
	}
}

func TestShardSetEmpty(t *testing.T) {
	if n := NewShardSet().RunUntil(testStart(), NewWorkerPool(4)); n != 0 {
		t.Fatalf("empty set ran %d events", n)
	}
}

// TestSchedulerConcurrentEveryCancel hammers Every, its stop function
// and After from many goroutines while a single driver steps the
// scheduler — the contract is: scheduling is safe from any goroutine,
// Run/Step from one. Run with -race to catch lock violations.
func TestSchedulerConcurrentEveryCancel(t *testing.T) {
	start := testStart()
	s := NewScheduler(NewClock(start))

	const goroutines, rounds = 8, 50
	var oneshots atomic.Int64
	var driver, schedulers sync.WaitGroup
	done := make(chan struct{})

	// Driver goroutine: the only caller of Step/RunUntil.
	driver.Add(1)
	go func() {
		defer driver.Done()
		for {
			select {
			case <-done:
				s.RunUntil(s.Now().Add(10 * time.Minute))
				return
			default:
				if !s.Step() {
					time.Sleep(time.Microsecond)
				}
			}
		}
	}()

	// Concurrent schedulers: Every loops started and stopped from
	// other goroutines, plus one-shot events.
	for g := 0; g < goroutines; g++ {
		schedulers.Add(1)
		go func() {
			defer schedulers.Done()
			for i := 0; i < rounds; i++ {
				stop := s.Every(time.Second, "every", func(time.Time) {})
				s.After(time.Duration(i+1)*time.Millisecond, "oneshot", func(time.Time) { oneshots.Add(1) })
				stop()
				stop() // stopping twice must be harmless
			}
		}()
	}

	// Once every event is scheduled, the driver drains the queue: each
	// one-shot fires exactly once, and no stopped loop re-arms.
	schedulers.Wait()
	close(done)
	driver.Wait()

	if got := oneshots.Load(); got != goroutines*rounds {
		t.Fatalf("%d one-shot events fired, want %d", got, goroutines*rounds)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("%d events still pending after every loop stopped", n)
	}
}

// TestSchedulerEveryStopsAfterCancelInCallback checks the documented
// interleaving: calling the stop function from inside the ticking
// callback prevents any further firings.
func TestSchedulerEveryStopsAfterCancelInCallback(t *testing.T) {
	s := NewScheduler(NewClock(testStart()))
	count := 0
	var stop func()
	stop = s.Every(time.Minute, "self-stop", func(time.Time) {
		count++
		if count == 3 {
			stop()
		}
	})
	s.RunFor(time.Hour)
	if count != 3 {
		t.Fatalf("ticked %d times after in-callback stop, want 3", count)
	}
}
