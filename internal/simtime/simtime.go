// Package simtime provides a deterministic discrete-event simulation
// clock and scheduler.
//
// The honeynet experiment spans seven months of virtual time
// (2015-06-25 through 2016-02-16 in the paper). Running it against the
// wall clock is impossible, so every component in this repository —
// the webmail service, the Apps Script runtime, outlets, the malware
// sandbox, and attacker models — reads time from a *Clock and
// schedules future work on a *Scheduler instead of using the time
// package directly. Advancing the scheduler drains due events in
// timestamp order, which makes a full experiment run deterministic
// and fast (milliseconds of wall time for months of virtual time).
package simtime

import (
	"container/heap"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is a monotonically advancing virtual clock. The zero value is
// not usable; construct one with NewClock. Clock is safe for
// concurrent use.
//
// The instant is stored as atomic Unix nanoseconds: Now sits on the
// hot path of every simulated component (tens of millions of calls in
// a fleet-scale run), and a lock-free load beats even an RWMutex read
// lock by a wide margin. All experiment times are well inside the
// ±292-year UnixNano range.
type Clock struct {
	nowNS atomic.Int64
}

// NewClock returns a Clock set to the given start instant.
func NewClock(start time.Time) *Clock {
	c := &Clock{}
	c.nowNS.Store(start.UnixNano())
	return c
}

// Now returns the current virtual time (UTC).
func (c *Clock) Now() time.Time {
	return time.Unix(0, c.nowNS.Load()).UTC()
}

// nowNanos returns the current virtual time in Unix nanoseconds.
func (c *Clock) nowNanos() int64 { return c.nowNS.Load() }

// advance moves the clock forward to t (Unix nanoseconds). It panics
// if t is earlier than the current virtual time: the simulation must
// never travel backwards, and a violation indicates a scheduler bug.
func (c *Clock) advance(t int64) {
	now := c.nowNS.Load()
	if t < now {
		panic(fmt.Sprintf("simtime: clock moved backwards: %v -> %v",
			time.Unix(0, now).UTC(), time.Unix(0, t).UTC()))
	}
	c.nowNS.Store(t)
}

// Event is a scheduled callback. Events compare by (when, seq): two
// events due at the same instant fire in scheduling order, which keeps
// runs reproducible.
type Event struct {
	whenNS int64 // due instant in Unix nanoseconds (the heap key)
	seq    uint64
	name   string
	fn     func(now time.Time)
}

// Name returns the diagnostic label the event was scheduled with.
func (e *Event) Name() string { return e.name }

// eventQueue is a min-heap of events ordered by (when, seq). Keys are
// integer nanoseconds: heap sift dominates a fleet-scale run's
// profile, and two int compares beat time.Time's Equal/Before pair.
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].whenNS != q[j].whenNS {
		return q[i].whenNS < q[j].whenNS
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) { *q = append(*q, x.(*Event)) }

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Scheduler owns a Clock and a priority queue of future events.
// Scheduler is safe for concurrent scheduling, but Run/Step must be
// called from a single goroutine.
type Scheduler struct {
	mu    sync.Mutex
	clock *Clock
	queue eventQueue
	seq   uint64

	fired atomic.Uint64
}

// NewScheduler returns a Scheduler driving the given clock.
func NewScheduler(clock *Clock) *Scheduler {
	return &Scheduler{clock: clock}
}

// Clock returns the clock the scheduler advances.
func (s *Scheduler) Clock() *Clock { return s.clock }

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time { return s.clock.Now() }

// Len returns the number of pending events.
func (s *Scheduler) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Fired returns the total number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired.Load() }

// Seq returns the number of events ever scheduled. Together with Len
// and Fired it pins the scheduler's observable state: the snapshot
// engine records all three and verifies that a resumed experiment
// re-arms its schedulers into exactly the state the original had.
func (s *Scheduler) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// At schedules fn to run at instant t. Events scheduled in the past
// fire immediately on the next Step (the clock never goes backwards;
// such events observe the current time).
func (s *Scheduler) At(t time.Time, name string, fn func(now time.Time)) *Event {
	if fn == nil {
		panic("simtime: At called with nil function")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := &Event{whenNS: t.UnixNano(), seq: s.seq, name: name, fn: fn}
	s.seq++
	heap.Push(&s.queue, e)
	return e
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, name string, fn func(now time.Time)) *Event {
	return s.At(s.clock.Now().Add(d), name, fn)
}

// Every schedules fn to run every interval, starting one interval from
// now, until the returned stop function is called. The paper's
// Apps-Script scan trigger ("every 10 minutes") and heartbeat ("once a
// day") are built on this.
func (s *Scheduler) Every(interval time.Duration, name string, fn func(now time.Time)) (stop func()) {
	if interval <= 0 {
		panic("simtime: Every requires a positive interval")
	}
	var stopped atomic.Bool
	var tick func(now time.Time)
	tick = func(now time.Time) {
		if stopped.Load() {
			return
		}
		fn(now)
		if !stopped.Load() {
			s.After(interval, name, tick)
		}
	}
	s.After(interval, name, tick)
	return func() { stopped.Store(true) }
}

// pop removes and returns the earliest pending event, or nil.
func (s *Scheduler) pop() *Event {
	return s.popDue(int64(^uint64(0) >> 1)) // max int64: everything is due
}

// popDue removes and returns the earliest pending event due at or
// before deadlineNS, or nil. One lock round-trip serves the peek and
// the pop — the run loop executes this once per event, so the saving
// is per-event.
func (s *Scheduler) popDue(deadlineNS int64) *Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 || s.queue[0].whenNS > deadlineNS {
		return nil
	}
	return heap.Pop(&s.queue).(*Event)
}

// run executes the popped event: advance the clock (past-due events
// observe the current time), count it, call it.
func (s *Scheduler) run(e *Event) {
	now := s.clock.nowNanos()
	if e.whenNS > now {
		s.clock.advance(e.whenNS)
		now = e.whenNS
	}
	s.fired.Add(1)
	e.fn(time.Unix(0, now).UTC())
}

// Step executes the single earliest pending event, advancing the clock
// to its due time (or leaving the clock untouched for past-due
// events). It reports whether an event ran.
func (s *Scheduler) Step() bool {
	e := s.pop()
	if e == nil {
		return false
	}
	s.run(e)
	return true
}

// RunUntil executes pending events in order until the queue is empty
// or the next event is due after deadline. The clock finishes at
// deadline (if reached) or at the last executed event. It returns the
// number of events executed.
func (s *Scheduler) RunUntil(deadline time.Time) int {
	deadlineNS := deadline.UnixNano()
	n := 0
	for {
		e := s.popDue(deadlineNS)
		if e == nil {
			break
		}
		s.run(e)
		n++
	}
	if deadlineNS > s.clock.nowNanos() {
		s.clock.advance(deadlineNS)
	}
	return n
}

// RunFor executes events for the given span of virtual time starting
// at the current instant. It returns the number of events executed.
func (s *Scheduler) RunFor(d time.Duration) int {
	return s.RunUntil(s.clock.Now().Add(d))
}
