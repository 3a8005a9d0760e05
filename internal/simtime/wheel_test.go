package simtime

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func newWheelFixture() (*Clock, *Scheduler, *TriggerWheel) {
	clock := NewClock(time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC))
	sched := NewScheduler(clock)
	return clock, sched, NewTriggerWheel(sched)
}

// Callbacks registered at the same instant on the same cadence share
// one bucket, fire in registration order, and first fire one interval
// after registration — Every semantics, O(1) heap events per tick.
func TestWheelBatchesSameCadence(t *testing.T) {
	_, sched, w := newWheelFixture()
	var fired []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		w.Every(10*time.Minute, "scan", func(time.Time) {
			fired = append(fired, name)
		})
	}
	if got := w.Buckets(); got != 1 {
		t.Fatalf("buckets = %d, want 1 (shared cadence)", got)
	}
	if got := sched.Len(); got != 1 {
		t.Fatalf("pending events = %d, want 1 (one chain for 3 callbacks)", got)
	}
	sched.RunFor(10 * time.Minute)
	if fmt.Sprint(fired) != "[a b c]" {
		t.Fatalf("first tick fired %v, want registration order [a b c]", fired)
	}
	sched.RunFor(20 * time.Minute)
	if len(fired) != 9 {
		t.Fatalf("after 3 ticks fired %d callbacks, want 9", len(fired))
	}
}

// The first fire lands exactly one interval after registration, never
// earlier: a mid-cycle registrant gets its own phase bucket instead of
// joining an existing lattice.
func TestWheelMidCycleRegistrationKeepsPhase(t *testing.T) {
	_, sched, w := newWheelFixture()
	var early, late []time.Time
	w.Every(10*time.Minute, "early", func(now time.Time) { early = append(early, now) })
	sched.RunFor(4 * time.Minute) // advance off the lattice
	w.Every(10*time.Minute, "late", func(now time.Time) { late = append(late, now) })
	if got := w.Buckets(); got != 2 {
		t.Fatalf("buckets = %d, want 2 (different phases)", got)
	}
	sched.RunFor(30 * time.Minute)
	if len(early) != 3 || len(late) != 3 {
		t.Fatalf("fired %d/%d, want 3/3", len(early), len(late))
	}
	base := time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)
	if !late[0].Equal(base.Add(14 * time.Minute)) {
		t.Fatalf("late first fired at %v, want t+interval = %v", late[0], base.Add(14*time.Minute))
	}
	if !early[0].Equal(base.Add(10 * time.Minute)) {
		t.Fatalf("early first fired at %v", early[0])
	}
}

// A callback registered at the exact instant an existing bucket's
// tick is due — from inside that very tick — still waits one full
// interval before its first fire, exactly like Scheduler.Every.
func TestWheelOnLatticeRegistrationWaitsFullInterval(t *testing.T) {
	base := time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)
	_, sched, w := newWheelFixture()
	var late []time.Time
	registered := false
	w.Every(10*time.Minute, "host", func(now time.Time) {
		if !registered && now.Equal(base.Add(20*time.Minute)) {
			registered = true
			// Same interval, and the clock sits exactly on the host
			// bucket's lattice: the registrant joins this bucket but
			// must not fire until t+interval.
			w.Every(10*time.Minute, "late", func(now time.Time) { late = append(late, now) })
		}
	})
	sched.RunFor(40 * time.Minute)
	if w.Buckets() != 1 {
		t.Fatalf("buckets = %d, want 1 (on-lattice registrant shares the bucket)", w.Buckets())
	}
	if len(late) != 2 {
		t.Fatalf("late fired %d times, want 2 (at 30m and 40m)", len(late))
	}
	if !late[0].Equal(base.Add(30 * time.Minute)) {
		t.Fatalf("late first fired at %v, want one full interval after registration (%v)",
			late[0], base.Add(30*time.Minute))
	}
}

// Stopping an entry stops only that entry; stopping the last entry
// retires the bucket and its event chain.
func TestWheelStopRemovesEntryThenBucket(t *testing.T) {
	_, sched, w := newWheelFixture()
	var a, b int
	stopA := w.Every(time.Minute, "a", func(time.Time) { a++ })
	stopB := w.Every(time.Minute, "b", func(time.Time) { b++ })
	sched.RunFor(2 * time.Minute)
	stopA()
	stopA() // idempotent
	sched.RunFor(2 * time.Minute)
	if a != 2 || b != 4 {
		t.Fatalf("a=%d b=%d, want 2/4", a, b)
	}
	if w.Buckets() != 1 {
		t.Fatalf("buckets = %d, want 1", w.Buckets())
	}
	stopB()
	if w.Buckets() != 0 {
		t.Fatalf("buckets after last stop = %d, want 0", w.Buckets())
	}
	sched.RunFor(5 * time.Minute)
	if b != 4 {
		t.Fatalf("stopped bucket still fired: b=%d", b)
	}
}

// A callback cancelled by an earlier callback in the same tick is
// skipped; a callback may also cancel itself without deadlocking.
func TestWheelCancelDuringTick(t *testing.T) {
	_, sched, w := newWheelFixture()
	var stopOther, stopSelf func()
	other := 0
	w.Every(time.Minute, "killer", func(time.Time) {
		if stopOther != nil {
			stopOther()
			stopOther = nil
		}
	})
	stopOther = w.Every(time.Minute, "victim", func(time.Time) { other++ })
	self := 0
	stopSelf = w.Every(time.Minute, "self", func(time.Time) {
		self++
		stopSelf()
	})
	sched.RunFor(3 * time.Minute)
	if other != 0 {
		t.Fatalf("cancelled-in-tick callback fired %d times", other)
	}
	if self != 1 {
		t.Fatalf("self-cancelling callback fired %d times, want 1", self)
	}
}

// Different cadences never share a bucket, and each keeps exact Every
// timing (heartbeats at 24h must not ride the 10-minute scan chain).
func TestWheelSeparatesCadences(t *testing.T) {
	_, sched, w := newWheelFixture()
	scans, beats := 0, 0
	w.Every(10*time.Minute, "scan", func(time.Time) { scans++ })
	w.Every(24*time.Hour, "beat", func(time.Time) { beats++ })
	if w.Buckets() != 2 {
		t.Fatalf("buckets = %d, want 2", w.Buckets())
	}
	sched.RunFor(48 * time.Hour)
	if scans != 288 || beats != 2 {
		t.Fatalf("scans=%d beats=%d, want 288/2", scans, beats)
	}
}

// Re-registering after the bucket died restarts a fresh chain (the
// appscript reinstall pattern).
func TestWheelReuseAfterEmpty(t *testing.T) {
	_, sched, w := newWheelFixture()
	n := 0
	stop := w.Every(time.Hour, "x", func(time.Time) { n++ })
	stop()
	w.Every(time.Hour, "y", func(time.Time) { n += 10 })
	sched.RunFor(time.Hour)
	if n != 10 {
		t.Fatalf("n = %d, want 10 (only the new registration fires)", n)
	}
}

// Heavy churn keeps the entry list compacted rather than accumulating
// dead entries forever.
func TestWheelCompaction(t *testing.T) {
	_, sched, w := newWheelFixture()
	keep := 0
	w.Every(time.Minute, "keep", func(time.Time) { keep++ })
	for i := 0; i < 1000; i++ {
		stop := w.Every(time.Minute, "churn", func(time.Time) {})
		stop()
	}
	b := func() *wheelBucket {
		w.mu.Lock()
		defer w.mu.Unlock()
		for _, b := range w.buckets {
			return b
		}
		return nil
	}()
	b.mu.Lock()
	entries := len(b.entries)
	b.mu.Unlock()
	if entries > 10 {
		t.Fatalf("bucket holds %d entries after churn, want compacted", entries)
	}
	sched.RunFor(time.Minute)
	if keep != 1 {
		t.Fatalf("survivor fired %d times, want 1", keep)
	}
}

// Concurrent registration/cancellation is safe (the honeynet registers
// from Setup while shard goroutines may drive other wheels; the race
// detector is the real assertion here).
func TestWheelConcurrentRegistration(t *testing.T) {
	_, sched, w := newWheelFixture()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				stop := w.Every(time.Minute, "c", func(time.Time) {})
				if j%2 == 0 {
					stop()
				}
			}
		}()
	}
	wg.Wait()
	sched.RunFor(time.Minute)
	if w.Buckets() != 1 {
		t.Fatalf("buckets = %d", w.Buckets())
	}
}

// onlyBucket returns the wheel's single bucket (tests build one).
func onlyBucket(t *testing.T, w *TriggerWheel) *wheelBucket {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.buckets) != 1 {
		t.Fatalf("buckets = %d, want 1", len(w.buckets))
	}
	for _, b := range w.buckets {
		return b
	}
	return nil
}

// An on-mark entry fires only on ticks after its mark was set, once
// per mark, and marks set while it waits collapse into one fire.
func TestWheelOnMarkFiresOncePerMark(t *testing.T) {
	_, sched, w := newWheelFixture()
	fired := 0
	mark, stop := w.OnMark(10*time.Minute, "scan", func(time.Time) { fired++ })
	sched.RunFor(30 * time.Minute)
	if fired != 0 {
		t.Fatalf("unmarked entry fired %d times", fired)
	}
	mark.Set()
	mark.Set()
	sched.RunFor(30 * time.Minute)
	if fired != 1 {
		t.Fatalf("entry marked twice between ticks fired %d times, want 1", fired)
	}
	if got := w.Chains(); len(got) != 1 || got[0].Entries != 1 {
		t.Fatalf("chains = %+v, want one bucket counting the on-mark entry", got)
	}
	stop()
	mark.Set() // a stopped entry's mark is inert
	sched.RunFor(30 * time.Minute)
	if fired != 1 || w.Buckets() != 0 {
		t.Fatalf("after stop: fired %d, buckets %d", fired, w.Buckets())
	}
}

// A mark set during a tick fires in that tick when the walk has not
// reached its entry yet, and on the next tick when it has — whether
// the bucket holds on-mark entries alone or mixes in ordinary ones.
func TestWheelMarkDuringTick(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		clock, sched, w := newWheelFixture()
		start := clock.Now()
		var fired []string
		marks := map[string]*Mark{}
		for _, name := range []string{"a", "b", "c"} {
			name := name
			marks[name], _ = w.OnMark(10*time.Minute, "scan", func(now time.Time) {
				fired = append(fired, fmt.Sprintf("%s@%v", name, now.Sub(start)))
				if name == "b" {
					marks["a"].Set() // behind the walk: next tick
					marks["c"].Set() // ahead of the walk: this tick
				}
			})
			if mixed && name == "a" {
				w.Every(10*time.Minute, "plain", func(time.Time) {})
			}
		}
		marks["b"].Set()
		sched.RunFor(20 * time.Minute)
		if got := fmt.Sprint(fired); got != "[b@10m0s c@10m0s a@20m0s]" {
			t.Fatalf("mixed=%v: fired %s, want [b@10m0s c@10m0s a@20m0s]", mixed, got)
		}
	}
}

// An idle tick over a large bucket of on-mark entries calls nothing
// and allocates nothing: the cost of a quiet fleet's scan tick does
// not grow with the fleet.
func TestWheelIdleOnMarkTickIsFree(t *testing.T) {
	clock, sched, w := newWheelFixture()
	calls := 0
	marks := make([]*Mark, 1000)
	for i := range marks {
		marks[i], _ = w.OnMark(10*time.Minute, "scan", func(time.Time) { calls++ })
	}
	b := onlyBucket(t, w)
	due := clock.Now().Add(10 * time.Minute)
	if allocs := testing.AllocsPerRun(100, func() { b.tick(due) }); allocs != 0 {
		t.Fatalf("idle tick allocated %.1f per run, want 0", allocs)
	}
	sched.RunFor(time.Hour)
	if calls != 0 {
		t.Fatalf("idle ticks called %d callbacks, want 0", calls)
	}
	marks[637].Set()
	sched.RunFor(10 * time.Minute)
	if calls != 1 {
		t.Fatalf("one mark fired %d callbacks, want 1", calls)
	}
}

// Marks may be set from other goroutines while the scheduler ticks
// and while entries register and stop (the race detector is the real
// assertion); every mark set before the last tick has fired by the
// end.
func TestWheelConcurrentMarking(t *testing.T) {
	_, sched, w := newWheelFixture()
	const n = 64
	var mu sync.Mutex
	fired := make([]int, n)
	marks := make([]*Mark, n)
	for i := range marks {
		i := i
		marks[i], _ = w.OnMark(time.Minute, "scan", func(time.Time) {
			mu.Lock()
			fired[i]++
			mu.Unlock()
		})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				marks[(g*31+j)%n].Set()
				if j%50 == 0 {
					_, stop := w.OnMark(time.Minute, "churn", func(time.Time) {})
					stop()
				}
			}
		}(g)
	}
	for k := 0; k < 20; k++ {
		sched.RunFor(time.Minute)
	}
	wg.Wait()
	sched.RunFor(time.Minute)
	mu.Lock()
	defer mu.Unlock()
	for i, f := range fired {
		if f == 0 {
			t.Fatalf("entry %d was marked but never fired", i)
		}
	}
}

// wheelFire is one callback invocation: which entry, at which instant.
type wheelFire struct {
	id int
	at time.Duration // since the fixture's start
}

// markModel drives a wheel through a seeded random script of
// registrations, marks and stops, between ticks and from inside
// callbacks. With onMark set, flagged entries are OnMark entries armed
// by Mark.Set. Without it they are ordinary Every entries whose
// callbacks return early unless a flag is set — the walk-every-entry
// reference. The two must fire the same entries at the same instants.
type markModel struct {
	onMark bool
	rng    *rand.Rand
	start  time.Time
	clock  *Clock
	sched  *Scheduler
	w      *TriggerWheel

	flagged []bool
	flags   []bool  // reference side: the per-entry "marked" flag
	marks   []*Mark // on-mark side
	slot0   []int   // on-mark side: each mark's slot at registration
	stops   []func()
	dead    []bool
	live    int
	fires   []wheelFire

	ahead, behind int // in-tick marks past and before the firing entry
}

var markIntervals = []time.Duration{5 * time.Minute, 10 * time.Minute, 15 * time.Minute}

func newMarkModel(seed int64, onMark bool) *markModel {
	clock, sched, w := newWheelFixture()
	return &markModel{onMark: onMark, rng: rand.New(rand.NewSource(seed)),
		start: clock.Now(), clock: clock, sched: sched, w: w}
}

// maxLive caps the live population: callbacks register entries, and
// uncapped the script would grow without bound.
const maxLive = 150

func (m *markModel) register(interval time.Duration, flagged bool) {
	if m.live >= maxLive {
		return
	}
	m.live++
	id := len(m.stops)
	m.dead = append(m.dead, false)
	m.flagged = append(m.flagged, flagged)
	m.flags = append(m.flags, false)
	fire := func(now time.Time) { m.fire(id, now) }
	var mark *Mark
	var stop func()
	switch {
	case flagged && m.onMark:
		mark, stop = m.w.OnMark(interval, "marked", fire)
	case flagged:
		stop = m.w.Every(interval, "flagged", func(now time.Time) {
			if !m.flags[id] {
				return
			}
			m.flags[id] = false
			fire(now)
		})
	default:
		stop = m.w.Every(interval, "plain", fire)
	}
	slot := -1
	if mark != nil {
		slot = mark.slot // no concurrent registrant: read without the lock
	}
	m.marks = append(m.marks, mark)
	m.slot0 = append(m.slot0, slot)
	m.stops = append(m.stops, stop)
}

// moved counts live on-mark entries that compaction has shifted to a
// lower slot than they registered at.
func (m *markModel) moved() int {
	n := 0
	for id, mark := range m.marks {
		if mark != nil && !m.dead[id] {
			mark.set.mu.Lock()
			if mark.slot < m.slot0[id] {
				n++
			}
			mark.set.mu.Unlock()
		}
	}
	return n
}

func (m *markModel) stop(id int) {
	if !m.dead[id] {
		m.dead[id] = true
		m.live--
	}
	m.stops[id]()
}

func (m *markModel) mark(id int) {
	if !m.flagged[id] {
		return
	}
	if m.onMark {
		m.marks[id].Set()
	} else {
		m.flags[id] = true
	}
}

// fire records one invocation, then acts from inside the tick: marks,
// stops and registrations land ahead of the walk, behind it, on the
// firing entry itself, and on this very bucket's lattice.
func (m *markModel) fire(id int, now time.Time) {
	m.fires = append(m.fires, wheelFire{id: id, at: now.Sub(m.start)})
	for k := m.rng.Intn(3); k > 0; k-- {
		switch r := m.rng.Intn(10); {
		case r < 6:
			target := m.rng.Intn(len(m.stops))
			if target > id {
				m.ahead++
			} else if target < id {
				m.behind++
			}
			m.mark(target)
		case r < 8:
			m.stop(m.rng.Intn(len(m.stops)))
		default:
			m.register(markIntervals[m.rng.Intn(len(markIntervals))], m.rng.Intn(4) > 0)
		}
	}
}

// run plays the seeded script: bursts of same-instant registrations
// (shared, mixed buckets), churn that forces compaction, marks and
// stops between ticks, and advances that land off the lattice so later
// registrations take their own phase.
func (m *markModel) run(steps int) {
	for i := 0; i < 12; i++ {
		m.register(markIntervals[i%len(markIntervals)], i%4 != 0)
	}
	for step := 0; step < steps; step++ {
		switch r := m.rng.Intn(10); {
		case r < 5:
			for k := m.rng.Intn(4); k >= 0; k-- {
				m.mark(m.rng.Intn(len(m.stops)))
			}
		case r < 6:
			m.stop(m.rng.Intn(len(m.stops)))
		case r < 8:
			interval := markIntervals[m.rng.Intn(len(markIntervals))]
			for k := m.rng.Intn(4); k >= 0; k-- {
				m.register(interval, m.rng.Intn(3) > 0)
			}
		default:
			// Churn: a burst of registrations, most stopped at once.
			first := len(m.stops)
			for k := 0; k < 20; k++ {
				m.register(5*time.Minute, k%5 != 0)
			}
			for k := first; k < len(m.stops) && k < first+16; k++ {
				m.stop(k)
			}
		}
		m.sched.RunFor(time.Duration(1+m.rng.Intn(12)) * time.Minute)
	}
}

func TestWheelOnMarkMatchesFlaggedReference(t *testing.T) {
	var ahead, behind, compactions int
	for seed := int64(1); seed <= 20; seed++ {
		got := newMarkModel(seed, true)
		want := newMarkModel(seed, false)
		got.run(400)
		want.run(400)
		ahead += got.ahead
		behind += got.behind
		if len(got.fires) != len(want.fires) {
			t.Fatalf("seed %d: %d fires on the on-mark wheel, %d on the reference", seed, len(got.fires), len(want.fires))
		}
		for i := range got.fires {
			if got.fires[i] != want.fires[i] {
				t.Fatalf("seed %d: fire %d is %+v on the on-mark wheel, %+v on the reference", seed, i, got.fires[i], want.fires[i])
			}
		}
		if g, w := fmt.Sprint(got.w.Chains()), fmt.Sprint(want.w.Chains()); g != w {
			t.Fatalf("seed %d: chains %s, reference %s", seed, g, w)
		}
		if got.sched.Seq() != want.sched.Seq() || got.sched.Fired() != want.sched.Fired() {
			t.Fatalf("seed %d: seq/fired %d/%d, reference %d/%d", seed,
				got.sched.Seq(), got.sched.Fired(), want.sched.Seq(), want.sched.Fired())
		}
		compactions += got.moved()
	}
	if ahead == 0 || behind == 0 || compactions == 0 {
		t.Fatalf("script too tame: %d marks ahead of the walk, %d behind, %d marks moved by compaction", ahead, behind, compactions)
	}
	t.Logf("%d in-tick marks ahead of the walk, %d behind, %d marks moved by compaction", ahead, behind, compactions)
}
