package livefleet

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/webmail"
	"repro/internal/wire"
)

// RouterConfig parameterises a Router.
type RouterConfig struct {
	// Shards lists the backend webmaild addresses; index i serves
	// partition i of len(Shards). Required.
	Shards []string
	// PoolSize caps the spare pre-established connections kept per
	// shard (default 8). A session checkout that finds the pool empty
	// dials; a failed login returns its connection to the pool.
	PoolSize int
	// MaxInFlight bounds requests being proxied concurrently across
	// all clients (default 1024) — the router's backpressure valve:
	// excess requests queue in their connection's goroutine instead of
	// piling onto the shards.
	MaxInFlight int
	// WriteTimeout is the slow-client guard: a client that cannot
	// absorb its response within this window is dropped rather than
	// allowed to pin a backend connection (default 10s).
	WriteTimeout time.Duration
	// DialTimeout bounds backend dials (default 5s).
	DialTimeout time.Duration
	// HealthInterval is the per-shard health prober cadence: each tick
	// dials the shard and completes one ping round trip under
	// HealthTimeout, flipping the shard up or down accordingly. 0
	// selects the 1s default; a negative interval disables the prober,
	// leaving dial outcomes alone to drive the up/down state.
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe, dial included (default 1s).
	HealthTimeout time.Duration
	// DialBackoff and DialBackoffMax shape the reconnect trickle for a
	// down shard: dials are admitted one per window, with the window
	// doubling (jittered) from DialBackoff up to DialBackoffMax until
	// a dial succeeds. Defaults 100ms and 5s.
	DialBackoff    time.Duration
	DialBackoffMax time.Duration
}

func (c *RouterConfig) fill() error {
	if len(c.Shards) == 0 {
		return fmt.Errorf("livefleet: router needs at least one shard")
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 8
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 1024
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.DialBackoff <= 0 {
		c.DialBackoff = 100 * time.Millisecond
	}
	if c.DialBackoffMax <= 0 {
		c.DialBackoffMax = 5 * time.Second
	}
	return nil
}

// backendConn pairs a shard connection with its buffered reader so a
// pooled connection keeps its read state across checkouts.
type backendConn struct {
	c     net.Conn
	br    *bufio.Reader
	shard int
}

func (b *backendConn) Close() { b.c.Close() }

// Router fronts a sharded webmaild fleet. It speaks the same
// newline-JSON wire protocol as a single webmaild: clients connect,
// LOGIN binds the connection, mailbox ops follow. The router peeks
// only {op, account} from each frame — on login it hashes the account
// with webmail.PartitionIndex onto a shard, checks a pooled backend
// connection out, and on success pins it to the client connection for
// the session's lifetime (the protocol is session-oriented, so the
// binding cannot move mid-session). Everything else is forwarded
// verbatim, which is what keeps the parity contract byte-level.
type Router struct {
	cfg    RouterConfig
	pools  []chan *backendConn
	sem    chan struct{}
	health []shardHealth
	srv    *wire.Server

	// stopProbes ends the per-shard health probers; closed exactly
	// once by whichever of Close/Drain runs first.
	stopProbes chan struct{}
	stopOnce   sync.Once
	probes     sync.WaitGroup
}

// NewRouter validates the config and builds an unstarted router.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	r := &Router{
		cfg:        cfg,
		pools:      make([]chan *backendConn, len(cfg.Shards)),
		sem:        make(chan struct{}, cfg.MaxInFlight),
		health:     make([]shardHealth, len(cfg.Shards)),
		stopProbes: make(chan struct{}),
	}
	r.srv = wire.NewServer("livefleet", r.serve)
	for i := range r.pools {
		r.pools[i] = make(chan *backendConn, cfg.PoolSize)
	}
	return r, nil
}

// Listen binds the router and starts accepting; it returns the bound
// address. Each shard is probed with one pooled dial first, so a
// misconfigured fleet fails here rather than on the first login.
func (r *Router) Listen(addr string) (string, error) {
	// Both error returns below must drain the pools: probe connections
	// established for earlier shards are already pooled, and a caller
	// that gives up on the error would otherwise leak them (and pin
	// the shards' connection slots) for the process lifetime.
	for shard := range r.cfg.Shards {
		bc, err := r.dial(shard)
		if err != nil {
			r.drainPools()
			return "", fmt.Errorf("livefleet: shard %d unreachable: %w", shard, err)
		}
		r.putBack(shard, bc)
	}
	bound, err := r.srv.Listen(addr)
	if err != nil {
		r.drainPools()
		return "", err
	}
	if r.cfg.HealthInterval > 0 {
		for shard := range r.cfg.Shards {
			r.probes.Add(1)
			go func(shard int) {
				defer r.probes.Done()
				r.probeLoop(shard)
			}(shard)
		}
	}
	return bound, nil
}

// dial opens one backend connection, subject to the shard's health
// state: a down shard admits one trial dial per backoff window and
// fails everything else fast with errShardDown — no dial timeout is
// burned on a shard the router already believes dead. Dial outcomes
// feed the same state back: failure marks the shard down (evicting
// its pool) and widens the window, success marks it up.
func (r *Router) dial(shard int) (*backendConn, error) {
	st := &r.health[shard]
	if !st.allowDial(time.Now()) {
		return nil, errShardDown
	}
	st.dials.Inc()
	c, err := net.DialTimeout("tcp", r.cfg.Shards[shard], r.cfg.DialTimeout)
	if err != nil {
		r.noteDialFailure(shard)
		return nil, err
	}
	r.noteDialSuccess(shard)
	return &backendConn{c: c, br: bufio.NewReader(c), shard: shard}, nil
}

// checkout returns a pooled connection to the shard or dials a fresh
// one; fromPool tells the login path whether a round-trip failure may
// be a stale pooled connection worth one retry on a fresh dial.
func (r *Router) checkout(shard int) (bc *backendConn, fromPool bool, err error) {
	select {
	case bc := <-r.pools[shard]:
		return bc, true, nil
	default:
	}
	bc, err = r.dial(shard)
	return bc, false, err
}

// putBack returns an unbound (never-logged-in) connection to its pool
// or closes it when the pool is full — or when the shard has since
// been marked down, so an eviction is never undone by an in-flight
// return.
func (r *Router) putBack(shard int, bc *backendConn) {
	if r.health[shard].down.Load() {
		bc.Close()
		return
	}
	select {
	case r.pools[shard] <- bc:
	default:
		bc.Close()
	}
}

// serve proxies one client connection. A bound backend connection is
// session state: it dies with the client connection, never returning
// to the pool (only never-logged-in connections are reusable).
func (r *Router) serve(c *wire.Conn) {
	var backend *backendConn
	defer func() {
		if backend != nil {
			backend.Close()
		}
	}()
	c.Serve(func(frame []byte) bool { return r.proxy(c, &backend, frame) })
}

// localError writes a router-originated error response; it reports
// whether the client accepted it in time.
func (r *Router) localError(c *wire.Conn, msg string) bool {
	resp, _ := json.Marshal(webmail.Response{Error: msg})
	return r.relay(c, append(resp, '\n'))
}

// relay writes one response frame under the slow-client deadline.
func (r *Router) relay(c *wire.Conn, frame []byte) bool {
	c.SetWriteDeadline(time.Now().Add(r.cfg.WriteTimeout))
	_, err := c.Write(frame)
	c.SetWriteDeadline(time.Time{})
	return err == nil
}

// proxy handles one request frame; it reports whether the connection
// should keep being served.
func (r *Router) proxy(rc *wire.Conn, backend **backendConn, line []byte) bool {
	r.sem <- struct{}{} // backpressure: bounded in-flight requests
	defer func() { <-r.sem }()

	var peek struct {
		Op      string `json:"op"`
		Account string `json:"account"`
	}
	if err := wire.Decode(line, &peek); err != nil {
		// A malformed frame desyncs the stream; webmaild drops the
		// connection for these under the same rule, so the router does
		// too.
		return false
	}
	if *backend == nil && peek.Op != "login" {
		// Same wording as an unbound shard connection would produce —
		// pre-binding requests never cost a backend round trip.
		return r.localError(rc, "webmail: not logged in")
	}
	if peek.Op == "login" {
		shard := webmail.PartitionIndex(peek.Account, len(r.cfg.Shards))
		st := &r.health[shard]
		st.inflight.Enter()
		defer st.inflight.Exit()
		// A login aimed at the currently bound shard is forwarded on
		// the bound connection: the shard rebinds (or, on failure,
		// keeps) its session exactly like a single webmaild. A login
		// for a different shard runs on a checked-out connection, and
		// only a SUCCESS retires the old binding — a failed cross-shard
		// re-login must leave the previous session alive, matching the
		// single-process semantics.
		if old := *backend; old != nil && old.shard == shard {
			raw, err := forward(old, line)
			if err != nil {
				old.Close()
				*backend = nil
				r.localError(rc, "webmail: shard connection lost")
				return false
			}
			return r.relay(rc, raw)
		}
		bc, fromPool, err := r.checkout(shard)
		if err != nil {
			return r.localError(rc, dialErrorMessage(err))
		}
		ok, raw, err := roundTrip(bc, line)
		if err != nil && fromPool {
			// The pooled connection may predate a shard drain or
			// restart; one fresh dial distinguishes a stale pool from a
			// dead shard. Only this unbound login frame is ever
			// replayed — bound-session traffic is not known safe to
			// resend, so its failures stay fatal to the session.
			bc.Close()
			st.retries.Inc()
			var fresh *backendConn
			if fresh, err = r.dial(shard); err != nil {
				return r.localError(rc, dialErrorMessage(err))
			}
			bc = fresh
			ok, raw, err = roundTrip(bc, line)
		}
		if err != nil {
			bc.Close()
			return r.localError(rc, "webmail: shard unavailable")
		}
		if ok {
			if old := *backend; old != nil {
				old.Close() // the superseded session dies with its conn
			}
			*backend = bc
		} else {
			// Failed login on a never-bound connection: still clean,
			// back to the pool. Any previous binding stays in place.
			r.putBack(shard, bc)
		}
		return r.relay(rc, raw)
	}
	st := &r.health[(*backend).shard]
	st.inflight.Enter()
	defer st.inflight.Exit()
	raw, err := forward(*backend, line)
	if err != nil {
		// The bound session is gone; only this session dies — the
		// client must reconnect, while sessions pinned to other
		// backends (and to other connections on the same shard) are
		// untouched.
		(*backend).Close()
		*backend = nil
		r.localError(rc, "webmail: shard connection lost")
		return false
	}
	return r.relay(rc, raw)
}

// dialErrorMessage maps a checkout/dial failure to its client-visible
// error: a known-down shard fails distinctly so replay tooling can
// separate expected down-shard refusals from router faults.
func dialErrorMessage(err error) string {
	if errors.Is(err, errShardDown) {
		return errShardDown.Error()
	}
	return "webmail: shard unavailable"
}

// forward sends one frame and reads the raw single-line response
// (json.Encoder frames never contain raw newlines). The bound-session
// relay path never parses response bodies — a list reply is opaque
// bytes to the router, and not bounded by wire.MaxFrame: with limit 0
// it may legitimately be larger.
func forward(bc *backendConn, line []byte) ([]byte, error) {
	if _, err := bc.c.Write(line); err != nil {
		return nil, err
	}
	return bc.br.ReadBytes('\n')
}

// roundTrip forwards one frame and additionally decodes the outcome
// bit — only login routing needs to know whether the shard accepted.
func roundTrip(bc *backendConn, line []byte) (ok bool, raw []byte, err error) {
	raw, err = forward(bc, line)
	if err != nil {
		return false, nil, err
	}
	var resp struct {
		OK bool `json:"ok"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return false, nil, err
	}
	return resp.OK, raw, nil
}

// Close stops the router, its health probers and every connection
// immediately.
func (r *Router) Close() error {
	r.stopOnce.Do(func() { close(r.stopProbes) })
	err := r.srv.Close()
	r.probes.Wait()
	r.drainPools()
	return err
}

// Drain shuts the router down gracefully with the wire drain contract
// (wire.Server.Drain), then stops its health probers and closes its
// pooled backend connections.
func (r *Router) Drain(ctx context.Context) error {
	r.stopOnce.Do(func() { close(r.stopProbes) })
	err := r.srv.Drain(ctx)
	r.probes.Wait()
	r.drainPools()
	return err
}

func (r *Router) drainPools() {
	for shard := range r.pools {
		r.evictPool(shard)
	}
}

// Shards returns the number of backend shards the router fronts.
func (r *Router) Shards() int { return len(r.cfg.Shards) }
