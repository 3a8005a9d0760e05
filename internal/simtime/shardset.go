package simtime

import (
	"sync"
	"time"
)

// ShardSet executes several independent Schedulers concurrently. It is
// the simulation-time backbone of the sharded experiment engine: each
// shard owns one Scheduler (and therefore one Clock), shards never
// share mutable state, and the set drives all of them to a common
// deadline across worker goroutines. Because every scheduler is
// isolated, the outcome is identical whether the shards run on one
// worker or fully in parallel.
type ShardSet struct {
	scheds []*Scheduler
}

// NewShardSet builds a set over the given schedulers.
func NewShardSet(scheds ...*Scheduler) *ShardSet {
	return &ShardSet{scheds: append([]*Scheduler(nil), scheds...)}
}

// Add appends a scheduler to the set.
func (ss *ShardSet) Add(s *Scheduler) { ss.scheds = append(ss.scheds, s) }

// Len returns the number of shards.
func (ss *ShardSet) Len() int { return len(ss.scheds) }

// Scheduler returns the i-th shard's scheduler.
func (ss *ShardSet) Scheduler(i int) *Scheduler { return ss.scheds[i] }

// Fired sums the events executed across all shards.
func (ss *ShardSet) Fired() uint64 {
	var n uint64
	for _, s := range ss.scheds {
		n += s.Fired()
	}
	return n
}

// Pending sums the events still queued across all shards.
func (ss *ShardSet) Pending() int {
	n := 0
	for _, s := range ss.scheds {
		n += s.Len()
	}
	return n
}

// WorkerPool is a counted budget of simulation workers shared by any
// number of ShardSets. The scenario matrix engine hands one pool to
// every concurrently running scenario so the whole matrix never
// drives more than n shard schedulers at once, however many scenarios
// × shards it fans out. Acquire/Release are also used directly to
// gate serial phases (scenario Setup/Leak) on the same budget.
type WorkerPool struct {
	sem chan struct{}
}

// NewWorkerPool builds a pool of n workers (n <= 0 selects 1).
func NewWorkerPool(n int) *WorkerPool {
	if n <= 0 {
		n = 1
	}
	return &WorkerPool{sem: make(chan struct{}, n)}
}

// Acquire blocks until a worker slot is free and claims it.
func (p *WorkerPool) Acquire() { p.sem <- struct{}{} }

// Release returns a claimed slot to the pool.
func (p *WorkerPool) Release() { <-p.sem }

// RunUntil advances every shard to the common deadline on one
// goroutine per shard, each of which first claims a slot of pool, so
// concurrently running ShardSets (one per scenario in a matrix)
// jointly respect one budget. Each shard's Run loop stays
// single-threaded — the Scheduler contract — while distinct shards
// proceed concurrently. The executed-event total is returned; because
// shards share no mutable state, results are identical however slots
// interleave.
func (ss *ShardSet) RunUntil(deadline time.Time, pool *WorkerPool) int {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total int
	)
	for _, s := range ss.scheds {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.Acquire()
			defer pool.Release()
			ran := s.RunUntil(deadline)
			mu.Lock()
			total += ran
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}
