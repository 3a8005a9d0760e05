package livefleet

import (
	"bufio"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/report"
	"repro/internal/stats"
)

// errShardDown is the fast-fail verdict for a shard the router
// currently believes dead: the login never cost a dial attempt, let
// alone a dial timeout. Clients see the distinct "webmail: shard down"
// message so replay tooling can tell an expected down-shard refusal
// from a router fault.
var errShardDown = errors.New("webmail: shard down")

// shardHealth is the router's per-shard fault-tolerance state: the
// prober's up/down verdict, the jittered-exponential dial-backoff
// window that turns a reconnect stampede into a trickle, and the
// atomic counters Stats snapshots. The state machine is
// up → down (dial or probe failure; pool evicted, logins fail fast)
// → probing (one trial dial per backoff window, prober pings each
// interval) → up (any successful dial or probe; backoff resets).
type shardHealth struct {
	down atomic.Bool

	// mu guards the backoff window. nextDialAt is the earliest moment
	// the next trial dial may start while the shard is down; backoff
	// is the current window width.
	mu         sync.Mutex
	backoff    time.Duration
	nextDialAt time.Time

	dials     stats.Counter
	retries   stats.Counter
	evictions stats.Counter
	downs     stats.Counter
	ups       stats.Counter
	inflight  stats.Highwater
}

// allowDial reports whether a backend dial may start now. An up shard
// always dials; a down shard admits one trial per backoff window —
// the admitted caller advances the window so concurrent logins behind
// it keep failing fast until the trial's outcome moves the state.
func (st *shardHealth) allowDial(now time.Time) bool {
	if !st.down.Load() {
		return true
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if now.Before(st.nextDialAt) {
		return false
	}
	st.nextDialAt = now.Add(st.backoff)
	return true
}

// jitterBackoff spreads a backoff window over [d/2, d) so shards
// marked down at the same instant do not retry in lockstep.
func jitterBackoff(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := int64(d / 2)
	return time.Duration(half + rand.Int63n(half))
}

// noteDialFailure records a failed dial (or probe round trip): the
// backoff window doubles up to the cap, and an up shard transitions
// down — which evicts its pool, so no later login can check out a
// connection that predates the failure.
func (r *Router) noteDialFailure(shard int) {
	st := &r.health[shard]
	st.mu.Lock()
	if st.backoff <= 0 {
		st.backoff = r.backoff
	} else {
		st.backoff = min(st.backoff*2, r.backoffMax)
	}
	st.nextDialAt = time.Now().Add(jitterBackoff(st.backoff))
	st.mu.Unlock()
	if st.down.CompareAndSwap(false, true) {
		st.downs.Inc()
		st.evictions.Add(r.evictPool(shard))
	}
}

// noteDialSuccess records a successful dial (or probe round trip): a
// down shard transitions up and the backoff window resets.
func (r *Router) noteDialSuccess(shard int) {
	st := &r.health[shard]
	if st.down.CompareAndSwap(true, false) {
		st.ups.Inc()
	}
	st.mu.Lock()
	st.backoff = 0
	st.nextDialAt = time.Time{}
	st.mu.Unlock()
}

// evictPool closes every pooled connection to the shard and returns
// how many it closed. A putBack racing the eviction can strand one
// stale connection in the pool; the login path's retry-on-fresh-dial
// absorbs exactly that case.
func (r *Router) evictPool(shard int) int64 {
	var n int64
	for {
		select {
		case bc := <-r.pools[shard]:
			bc.Close()
			n++
		default:
			return n
		}
	}
}

// pingFrame is the health probe's request. The shard answers unknown
// ops with a one-line error frame without touching any account state,
// which makes it exactly as cheap as a dedicated ping op while
// requiring none: any response line proves the wire path end to end
// (accept, frame parse, respond), not merely that the port accepts.
var pingFrame = []byte("{\"op\":\"ping\"}\n")

// probeLoop pings one shard every HealthInterval until the router
// closes.
func (r *Router) probeLoop(shard int) {
	t := time.NewTicker(r.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stopProbes:
			return
		case <-t.C:
		}
		r.probe(shard)
	}
}

// probe performs one liveness round trip under HealthTimeout on a
// dedicated connection (never a pooled one, so a probe cannot steal
// or poison serving connections).
func (r *Router) probe(shard int) {
	st := &r.health[shard]
	st.dials.Inc()
	c, err := net.DialTimeout("tcp", r.cfg.Shards[shard], r.cfg.HealthTimeout)
	if err != nil {
		r.noteDialFailure(shard)
		return
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(r.cfg.HealthTimeout))
	if _, err := c.Write(pingFrame); err != nil {
		r.noteDialFailure(shard)
		return
	}
	if _, err := bufio.NewReader(c).ReadBytes('\n'); err != nil {
		r.noteDialFailure(shard)
		return
	}
	r.noteDialSuccess(shard)
}

// RouterStats is a point-in-time snapshot of the router's per-shard
// health state and fault counters, in shard order — what
// report.FleetHealth renders next to the serving-latency section.
type RouterStats struct {
	Shards []report.ShardHealth
}

// Stats snapshots the per-shard health counters. Counters are read
// individually with atomic loads; a snapshot taken under live traffic
// is internally consistent per counter, not across counters.
func (r *Router) Stats() RouterStats {
	out := RouterStats{Shards: make([]report.ShardHealth, len(r.health))}
	for i := range r.health {
		st := &r.health[i]
		out.Shards[i] = report.ShardHealth{
			Addr:              r.cfg.Shards[i],
			Up:                !st.down.Load(),
			Dials:             st.dials.Load(),
			Retries:           st.retries.Load(),
			Evictions:         st.evictions.Load(),
			DownTransitions:   st.downs.Load(),
			UpTransitions:     st.ups.Load(),
			InFlightHighwater: st.inflight.High(),
		}
	}
	return out
}
