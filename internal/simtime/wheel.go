package simtime

import (
	"math/bits"
	"sort"
	"sync"
	"time"
)

// TriggerWheel batches periodic callbacks that share a cadence onto a
// single scheduler event chain. A fleet-scale honeynet installs one
// scan trigger and one heartbeat trigger per account; scheduled
// individually that is O(accounts) heap events per tick (tens of
// millions of heap sift operations over a seven-month run). The wheel
// collapses every callback with the same (interval, phase) into one
// bucket driven by one Every chain, so the scheduler pays O(1) heap
// operations per tick regardless of how many accounts registered.
//
// Semantics match Scheduler.Every exactly: a callback registered at
// time t with interval i first fires at t+i and then every i after.
// Callbacks registered at the same instant on the same cadence share a
// bucket and fire in registration order — the same order individually
// scheduled events with identical due times would fire (heap ties
// break by scheduling sequence). Callbacks registered mid-cycle land
// in a bucket with a different phase and keep their own tick lattice,
// so batching never shifts a trigger's firing times.
//
// An on-mark entry (OnMark) rides its bucket like any other but fires
// on a tick only if its Mark was set since it last fired. A tick
// visits ordinary entries and marked on-mark entries together, in
// registration order; a bucket of on-mark entries alone jumps from
// mark to mark, so its tick costs O(marked) rather than O(entries).
// A mark set during a tick fires in that tick if the walk has not
// reached its entry yet, and on the next tick otherwise — exactly
// what an ordinary callback that returns early unless a flag is set
// would do. The bucket's chain keeps ticking when nothing is marked,
// so the scheduler's event stream does not depend on marks.
//
// TriggerWheel is safe for concurrent registration and marking;
// callbacks run on the scheduler's Run goroutine like any other event.
type TriggerWheel struct {
	sched *Scheduler

	mu      sync.Mutex
	buckets map[wheelKey]*wheelBucket
}

// wheelKey identifies a bucket: every callback in it fires at instants
// ≡ phase (mod interval), in nanoseconds.
type wheelKey struct {
	intervalNS int64
	phaseNS    int64
}

// wheelBucket is one (interval, phase) group: a single Every chain
// fanning out to its entries in registration order.
type wheelBucket struct {
	wheel *TriggerWheel
	key   wheelKey

	// markSet is the bucket's lock (b.mu) and its mark bits: bit i
	// stands for entries[i].
	*markSet

	entries  []*wheelEntry
	live     int
	plain    int  // live ordinary (not on-mark) entries
	stopped  int  // entries cancelled but not yet compacted
	ticking  bool // a tick is walking entries by index; compaction waits
	stopTick func()
}

// wheelEntry is one registered callback.
type wheelEntry struct {
	fn func(now time.Time)
	// notBeforeNS is registration time + interval: the earliest tick
	// this entry may fire on. It keeps Every semantics exact when a
	// registration lands at the very instant an existing bucket's tick
	// is due but has not run yet — without it the new callback would
	// fire zero intervals after registration.
	notBeforeNS int64
	stopped     bool
	mark        *Mark // nil for an ordinary entry
}

// markSet is one bucket's lock and mark bits. It is the only part of
// the wheel a Mark reaches, and it is plain data — no callback, bucket
// or scheduler pointer — so a Mark kept by a long-lived object (a
// webmail account outlives the experiment that watched it) retains a
// few words of bits, never the simulation that registered it.
type markSet struct {
	mu     sync.Mutex
	bits   []uint64
	marked int // set bits
}

func (s *markSet) setLocked(i int) {
	w, bit := i>>6, uint64(1)<<(i&63)
	if s.bits[w]&bit == 0 {
		s.bits[w] |= bit
		s.marked++
	}
}

// takeLocked clears bit i and reports whether it was set.
func (s *markSet) takeLocked(i int) bool {
	w, bit := i>>6, uint64(1)<<(i&63)
	if s.bits[w]&bit == 0 {
		return false
	}
	s.bits[w] &^= bit
	s.marked--
	return true
}

// nextLocked returns the first set bit at or after i, or -1.
func (s *markSet) nextLocked(i int) int {
	if s.marked == 0 {
		return -1
	}
	for w := i >> 6; w < len(s.bits); w++ {
		word := s.bits[w]
		if w == i>>6 {
			word &= ^uint64(0) << (i & 63)
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// Mark arms one on-mark entry (see TriggerWheel.OnMark). It holds
// only the entry's slot in its bucket's mark bits, so keeping a Mark
// keeps neither the callback, the wheel nor the scheduler alive, and
// setting one runs no caller code.
type Mark struct {
	set  *markSet
	slot int // index into the bucket's entries; -1 once stopped. Guarded by set.mu.
}

// Set marks the entry: it fires on its bucket's next tick — or on the
// running tick, if that has not reached the entry yet. Setting a mark
// that is already set, or whose entry was stopped, does nothing. Set is
// safe from any goroutine.
func (m *Mark) Set() {
	m.set.mu.Lock()
	if m.slot >= 0 {
		m.set.setLocked(m.slot)
	}
	m.set.mu.Unlock()
}

// NewTriggerWheel returns a wheel batching onto the given scheduler.
func NewTriggerWheel(sched *Scheduler) *TriggerWheel {
	if sched == nil {
		panic("simtime: NewTriggerWheel requires a scheduler")
	}
	return &TriggerWheel{sched: sched, buckets: make(map[wheelKey]*wheelBucket)}
}

// Buckets returns the number of live (interval, phase) groups — the
// number of scheduler event chains the wheel is paying for.
func (w *TriggerWheel) Buckets() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.buckets)
}

// ChainState describes one live (interval, phase) bucket: its cadence
// and how many registered callbacks ride it. Pending events carry
// closures, so a chain cannot cross a process boundary — instead the
// snapshot engine serializes these descriptors and, after the resumed
// experiment re-arms its own triggers, verifies the rebuilt wheel has
// chain-for-chain identical state.
type ChainState struct {
	IntervalNS int64
	PhaseNS    int64
	Entries    int
}

// Chains returns the wheel's live buckets sorted by (interval, phase)
// — a deterministic structural fingerprint of the wheel.
func (w *TriggerWheel) Chains() []ChainState {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]ChainState, 0, len(w.buckets))
	for key, b := range w.buckets {
		b.mu.Lock()
		out = append(out, ChainState{IntervalNS: key.intervalNS, PhaseNS: key.phaseNS, Entries: b.live})
		b.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].IntervalNS != out[j].IntervalNS {
			return out[i].IntervalNS < out[j].IntervalNS
		}
		return out[i].PhaseNS < out[j].PhaseNS
	})
	return out
}

// Every registers fn to run every interval, first firing one interval
// from now, until the returned stop function is called. The name
// labels the bucket's scheduler events (the first registrant's name
// wins for a shared bucket; it is diagnostic only).
func (w *TriggerWheel) Every(interval time.Duration, name string, fn func(now time.Time)) (stop func()) {
	_, stop = w.register(interval, name, fn, false)
	return stop
}

// OnMark registers fn on the same lattice and in the same bucket as
// Every would, but a tick fires it only if mark.Set was called since
// it last fired (or since registration). A fresh entry is unmarked.
// The entry counts in Chains like any other.
func (w *TriggerWheel) OnMark(interval time.Duration, name string, fn func(now time.Time)) (mark *Mark, stop func()) {
	return w.register(interval, name, fn, true)
}

func (w *TriggerWheel) register(interval time.Duration, name string, fn func(now time.Time), onMark bool) (*Mark, func()) {
	if interval <= 0 {
		panic("simtime: TriggerWheel registration requires a positive interval")
	}
	if fn == nil {
		panic("simtime: TriggerWheel registration with nil function")
	}
	intervalNS := int64(interval)
	nowNS := w.sched.Clock().nowNanos()
	phase := nowNS % intervalNS
	if phase < 0 {
		phase += intervalNS
	}
	key := wheelKey{intervalNS: intervalNS, phaseNS: phase}
	e := &wheelEntry{fn: fn, notBeforeNS: nowNS + intervalNS}

	// The entry is appended while still holding the wheel lock (bucket
	// lock nested inside — the same order remove's retirement path
	// uses) so a concurrent remove can never empty, delete and stop
	// the bucket between our lookup and our append: either remove's
	// live re-check sees our entry, or the bucket is already gone and
	// we create a fresh one with a fresh chain.
	w.mu.Lock()
	b, ok := w.buckets[key]
	if !ok {
		b = &wheelBucket{wheel: w, key: key, markSet: &markSet{}}
		w.buckets[key] = b
		// Start the chain after publishing the bucket; the first tick is
		// one interval away, so no event can fire before we finish.
		b.stopTick = w.sched.Every(interval, name, b.tick)
	}
	b.mu.Lock()
	if onMark {
		// A Mark is its own allocation, not a field of the entry: a
		// pointer into the entry would keep the entry, and with it the
		// callback, alive for as long as the Mark is held.
		e.mark = &Mark{set: b.markSet, slot: len(b.entries)}
	} else {
		b.plain++
	}
	b.entries = append(b.entries, e)
	if len(b.entries) > len(b.bits)*64 {
		b.bits = append(b.bits, 0)
	}
	b.live++
	b.mu.Unlock()
	w.mu.Unlock()
	return e.mark, func() { b.remove(e) }
}

// tick fires, in registration order, every live ordinary entry and
// every marked on-mark entry that is due, consuming the marks it
// fires. The walk goes by index and drops the lock around each
// callback, so callbacks may register, cancel (even themselves) or
// mark entries: compaction waits for the tick to end, new entries
// append at the end (and are not due yet), and a cancelled entry is
// skipped. An entry registered less than one interval ago waits for
// its first full interval (Every semantics) and keeps its mark.
func (b *wheelBucket) tick(now time.Time) {
	nowNS := now.UnixNano()
	b.mu.Lock()
	b.ticking = true
	for i := 0; ; i++ {
		if b.plain == 0 {
			// Only on-mark entries: jump to the next mark, so a tick
			// with nothing marked is one lock round trip.
			if i = b.nextLocked(i); i < 0 {
				break
			}
		} else if i >= len(b.entries) {
			break
		}
		e := b.entries[i]
		if e.stopped || e.notBeforeNS > nowNS || (e.mark != nil && !b.takeLocked(i)) {
			continue
		}
		b.mu.Unlock()
		e.fn(now)
		b.mu.Lock()
	}
	b.ticking = false
	b.compactLocked()
	b.mu.Unlock()
}

// compactLocked drops cancelled entries once they dominate, so a
// long-lived bucket with churn does not walk dead entries forever.
// Survivors keep their order, and each mark moves with its entry.
func (b *wheelBucket) compactLocked() {
	if b.stopped <= len(b.entries)/2 {
		return
	}
	kept := b.entries[:0]
	for i, e := range b.entries {
		// New index <= old index, and every bit below i was already
		// read, so the marks can move in place.
		marked := b.takeLocked(i)
		if e.stopped {
			continue
		}
		if e.mark != nil {
			e.mark.slot = len(kept)
			if marked {
				b.setLocked(len(kept))
			}
		}
		kept = append(kept, e)
	}
	clear(b.entries[len(kept):])
	b.entries = kept
	b.bits = b.bits[:(len(kept)+63)/64]
	b.stopped = 0
}

// remove cancels one entry; the last removal stops the bucket's chain
// and drops the bucket. Removing twice is a no-op.
func (b *wheelBucket) remove(e *wheelEntry) {
	b.mu.Lock()
	if e.stopped {
		b.mu.Unlock()
		return
	}
	e.stopped = true
	b.live--
	b.stopped++
	if e.mark != nil {
		b.takeLocked(e.mark.slot)
		e.mark.slot = -1
	} else {
		b.plain--
	}
	if !b.ticking {
		b.compactLocked()
	}
	empty := b.live == 0
	stopTick := b.stopTick
	b.mu.Unlock()

	if empty {
		b.wheel.mu.Lock()
		// Re-check under the wheel lock: a concurrent Every may have
		// repopulated this bucket — or already retired it and published
		// a fresh bucket under the same key, which must not be deleted
		// from under its registrants (hence the identity check).
		b.mu.Lock()
		retire := b.live == 0 && b.wheel.buckets[b.key] == b
		if retire {
			delete(b.wheel.buckets, b.key)
		}
		b.mu.Unlock()
		b.wheel.mu.Unlock()
		if retire {
			stopTick()
		}
	}
}
