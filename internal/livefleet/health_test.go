package livefleet

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/webmail"
)

// restartableShard is a snapshot-booted shard server that can be
// killed and rebooted on the same address — the in-process stand-in
// for SIGTERM-ing and restarting a webmaild shard process.
type restartableShard struct {
	t           *testing.T
	path        string
	part, parts int
	addr        string
	srv         *webmail.Server
	svc         *webmail.Service
	creds       []Credential
}

func newRestartableShard(t *testing.T, path string, part, parts int) *restartableShard {
	t.Helper()
	sh := &restartableShard{t: t, path: path, part: part, parts: parts}
	sh.boot("127.0.0.1:0")
	t.Cleanup(func() { sh.srv.Close() })
	return sh
}

func (sh *restartableShard) boot(addr string) {
	sh.t.Helper()
	svc, creds, err := BootService(sh.path, sh.part, sh.parts, svcConfig())
	if err != nil {
		sh.t.Fatal(err)
	}
	srv := webmail.NewServer(svc)
	// Rebinding the just-released port can briefly race the kernel;
	// retry within a short budget.
	var bound string
	for i := 0; ; i++ {
		bound, err = srv.Listen(addr)
		if err == nil {
			break
		}
		if i >= 100 {
			sh.t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	sh.svc, sh.creds, sh.srv = svc, creds, srv
	if sh.addr == "" {
		sh.addr = bound
	}
}

func (sh *restartableShard) stop() {
	sh.t.Helper()
	sh.srv.Close()
}

func (sh *restartableShard) restart() {
	sh.t.Helper()
	sh.boot(sh.addr)
	sh.t.Cleanup(func() { sh.srv.Close() })
}

// waitForShardState polls the router's stats until the shard reports
// the wanted liveness.
func waitForShardState(t *testing.T, r *Router, shard int, up bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if r.Stats().Shards[shard].Up == up {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("shard %d never became up=%v: %+v", shard, up, r.Stats().Shards[shard])
}

// TestRouterStalePooledConnRetriesFreshDial is the regression test for
// the stale-pool bug: a pooled connection whose shard restarted used
// to fail the next login with "webmail: shard unavailable" even though
// a fresh dial would succeed. The login path must retry exactly once
// on a fresh dial when the failed connection came from the pool.
func TestRouterStalePooledConnRetriesFreshDial(t *testing.T) {
	path := buildTestSnapshot(t, 4)
	sh := newRestartableShard(t, path, 0, 1)
	router, err := NewRouter(RouterConfig{
		Shards: []string{sh.addr},
		// Prober off: the stale connection must still be in the pool
		// when the second login checks it out.
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	raddr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })

	// First login (wrong password) returns its backend connection to
	// the pool; together with Listen's probe connection the pool now
	// holds connections that predate the restart below.
	c1 := routerDial(t, raddr)
	bad := sh.creds[0]
	bad.Password = "wrong"
	if resp, err := c1.Do(loginReq(bad, "")); err != nil || resp.OK {
		t.Fatalf("wrong-password login: %v %+v", err, resp)
	}

	sh.stop()
	sh.restart()

	// Second login checks out a stale pooled connection; the retry on
	// a fresh dial must make it succeed transparently.
	c2 := routerDial(t, raddr)
	resp, err := c2.Do(loginReq(sh.creds[0], ""))
	if err != nil || !resp.OK {
		t.Fatalf("login after shard restart: %v %+v", err, resp)
	}
	if resp, err := c2.Do(webmail.Request{Op: "list", Folder: "inbox"}); err != nil || !resp.OK {
		t.Fatalf("list on retried session: %v %+v", err, resp)
	}
	if got := router.Stats().Shards[0].Retries; got < 1 {
		t.Fatalf("retries counter = %d, want >= 1", got)
	}
}

// TestRouterListenFailureDrainsPools is the regression test for the
// probe-connection leak: when net.Listen fails, the per-shard pools
// were already populated and must be drained on the error return.
func TestRouterListenFailureDrainsPools(t *testing.T) {
	path := buildTestSnapshot(t, 2)
	sh := newRestartableShard(t, path, 0, 1)
	// Occupy a port so the router's own listen must fail after its
	// shard probes succeeded.
	blocker, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Close()
	router, err := NewRouter(RouterConfig{Shards: []string{sh.addr}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := router.Listen(blocker.Addr().String()); err == nil {
		t.Fatal("listen on an occupied address succeeded")
	}
	for shard, pool := range router.pools {
		if n := len(pool); n != 0 {
			t.Fatalf("shard %d pool holds %d connections after failed listen", shard, n)
		}
	}
	if err := router.Close(); err != nil {
		t.Fatalf("close after failed listen: %v", err)
	}
}

// TestRouterDialBackoffGatesTrialDials: after a dial failure the shard
// is down and further logins fail fast with the distinct "shard down"
// error — no dial attempt, no timeout burned — until the backoff
// window admits a trial dial, which succeeds once the shard returns.
func TestRouterDialBackoffGatesTrialDials(t *testing.T) {
	path := buildTestSnapshot(t, 4)
	sh := newRestartableShard(t, path, 0, 1)
	router, err := NewRouter(RouterConfig{
		Shards:         []string{sh.addr},
		HealthInterval: -1, // dial outcomes alone drive the state
	})
	if err != nil {
		t.Fatal(err)
	}
	router.backoff, router.backoffMax = 500*time.Millisecond, 2*time.Second
	raddr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })

	sh.stop()

	// The pooled probe connection is stale; the retry's fresh dial
	// fails and marks the shard down.
	c1 := routerDial(t, raddr)
	resp, err := c1.Do(loginReq(sh.creds[0], ""))
	if err != nil || resp.OK {
		t.Fatalf("login against dead shard: %v %+v", err, resp)
	}
	if resp.Error != "webmail: shard unavailable" {
		t.Fatalf("first failure error = %q", resp.Error)
	}
	if up := router.Stats().Shards[0].Up; up {
		t.Fatal("shard still up after failed dial")
	}

	// Inside the backoff window: fail fast, distinctly, without dialing.
	dialsBefore := router.Stats().Shards[0].Dials
	c2 := routerDial(t, raddr)
	resp, err = c2.Do(loginReq(sh.creds[0], ""))
	if err != nil || resp.OK {
		t.Fatalf("login during backoff: %v %+v", err, resp)
	}
	if resp.Error != "webmail: shard down" {
		t.Fatalf("backoff error = %q, want webmail: shard down", resp.Error)
	}
	if got := router.Stats().Shards[0].Dials; got != dialsBefore {
		t.Fatalf("fast-fail still dialed: %d -> %d", dialsBefore, got)
	}

	// Once the shard returns, a trial dial is admitted after at most
	// one capped window and the shard flips back up.
	sh.restart()
	deadline := time.Now().Add(15 * time.Second)
	for {
		c := routerDial(t, raddr)
		resp, err = c.Do(loginReq(sh.creds[0], ""))
		if err == nil && resp.OK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("login never recovered after restart: %v %+v", err, resp)
		}
		time.Sleep(50 * time.Millisecond)
	}
	st := router.Stats().Shards[0]
	if !st.Up || st.DownTransitions != 1 || st.UpTransitions != 1 {
		t.Fatalf("state after recovery: %+v", st)
	}
}

// TestRouterHealthProberFailover: the active prober flips a dead shard
// down (evicting its pool) without any client traffic, and flips it
// back up after the restart so new logins route normally.
func TestRouterHealthProberFailover(t *testing.T) {
	path := buildTestSnapshot(t, 4)
	sh := newRestartableShard(t, path, 0, 1)
	router, err := NewRouter(RouterConfig{
		Shards:         []string{sh.addr},
		HealthInterval: 25 * time.Millisecond,
		HealthTimeout:  500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	router.backoff, router.backoffMax = 25*time.Millisecond, 250*time.Millisecond
	raddr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })

	sh.stop()
	waitForShardState(t, router, 0, false)
	st := router.Stats().Shards[0]
	if st.DownTransitions != 1 {
		t.Fatalf("down transitions = %d, want 1", st.DownTransitions)
	}
	if st.Evictions < 1 {
		t.Fatalf("evictions = %d; the pooled probe connection should have been evicted", st.Evictions)
	}
	// A login to the down shard is refused as a down-shard rejection
	// (fast-fail or a failed trial dial, depending on window timing).
	c := routerDial(t, raddr)
	resp, err := c.Do(loginReq(sh.creds[0], ""))
	if err != nil || resp.OK {
		t.Fatalf("login to down shard: %v %+v", err, resp)
	}
	if !strings.HasPrefix(resp.Error, "webmail: shard") {
		t.Fatalf("down-shard error = %q", resp.Error)
	}

	sh.restart()
	waitForShardState(t, router, 0, true)
	c2 := routerDial(t, raddr)
	if resp, err := c2.Do(loginReq(sh.creds[0], "")); err != nil || !resp.OK {
		t.Fatalf("login after prober flipped shard up: %v %+v", err, resp)
	}
	st = router.Stats().Shards[0]
	if st.DownTransitions != 1 || st.UpTransitions != 1 {
		t.Fatalf("transitions after recovery: %+v", st)
	}
}

// TestLoadgenTolerateUnavailable: with one shard dead for the whole
// replay, tolerate-unavailable mode completes with zero protocol
// errors — every refusal for the dead shard's accounts is tallied as
// unavailable, while the surviving shard's traffic is fully accepted.
func TestLoadgenTolerateUnavailable(t *testing.T) {
	path := buildTestSnapshot(t, 12)
	const parts = 2
	svc0, creds0, err := BootService(path, 0, parts, svcConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv0 := webmail.NewServer(svc0)
	addr0, err := srv0.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv0.Close() })
	sh1 := newRestartableShard(t, path, 1, parts)
	router, err := NewRouter(RouterConfig{
		Shards:         []string{addr0, sh1.addr},
		HealthInterval: 25 * time.Millisecond,
		HealthTimeout:  500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	router.backoff, router.backoffMax = 25*time.Millisecond, 250*time.Millisecond
	raddr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })

	creds := append(append([]Credential{}, creds0...), sh1.creds...)
	cfg := testPlanConfig(creds)
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh1.stop()
	waitForShardState(t, router, 1, false)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	stats, err := Run(ctx, RunConfig{
		Addr: raddr, Timeout: 10 * time.Second,
		TolerateUnavailable: true, Label: "chaos",
	}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 0 || stats.Timeouts != 0 {
		t.Fatalf("faults in tolerate mode: %d errors, %d timeouts", stats.Errors, stats.Timeouts)
	}
	if stats.Unavailable == 0 {
		t.Fatal("no unavailable tallies with a dead shard; the mode never engaged")
	}
	if stats.Rejected != 0 {
		t.Fatalf("%d rejections; surviving-shard traffic should be fully accepted", stats.Rejected)
	}
}
