package livefleet

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/attacker"
	"repro/internal/wire"
)

func testPlanConfig(creds []Credential) PlanConfig {
	return PlanConfig{
		Seed:    42,
		Workers: 4,
		Visits:  6,
		Mailbox: 3,
		Creds:   creds,
		Mix:     MixFromPopulations(attacker.DefaultPopulations()),
	}
}

func testCreds(n int) []Credential {
	var creds []Credential
	for i := 0; i < n; i++ {
		creds = append(creds, Credential{
			Address:  testAddr(i),
			Password: testPw(i),
		})
	}
	return creds
}

func testAddr(i int) string { return "user" + pad3(i) + "@honeymail.example" }
func testPw(i int) string   { return "pw-" + pad3(i) }

func pad3(i int) string {
	s := []byte{'0', '0', '0'}
	for p := 2; p >= 0 && i > 0; p-- {
		s[p] = byte('0' + i%10)
		i /= 10
	}
	return string(s)
}

// TestBuildPlanDeterministic: the load schedule is a pure function of
// its config — same seed, same byte-identical plan.
func TestBuildPlanDeterministic(t *testing.T) {
	cfg := testPlanConfig(testCreds(12))
	p1, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("same config produced different plans")
	}
	cfg.Seed = 43
	p3, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(p1, p3) {
		t.Fatal("different seeds produced identical plans")
	}
	if p1.Ops() == 0 {
		t.Fatal("plan is empty")
	}
}

// TestBuildPlanDisjointOwnership: no account appears in two workers'
// schedules — the property that makes plan-time password evolution
// race-free at run time.
func TestBuildPlanDisjointOwnership(t *testing.T) {
	plan, err := BuildPlan(testPlanConfig(testCreds(10)))
	if err != nil {
		t.Fatal(err)
	}
	owner := map[string]int{}
	for w, ops := range plan.Workers {
		for _, op := range ops {
			if prev, ok := owner[op.Account]; ok && prev != w {
				t.Fatalf("account %s scheduled by workers %d and %d", op.Account, prev, w)
			}
			owner[op.Account] = w
		}
	}
}

// TestBuildPlanPasswordEvolution: every login presents the password
// left by the most recent preceding chpass for that account (or the
// seed credential before any chpass).
func TestBuildPlanPasswordEvolution(t *testing.T) {
	cfg := testPlanConfig(testCreds(6))
	cfg.Mix.Hijacker = 1 // every visit ends in a password change
	cfg.Visits = 8
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seed := map[string]string{}
	for _, c := range testCreds(6) {
		seed[c.Address] = c.Password
	}
	chpasses := 0
	for _, ops := range plan.Workers {
		current := map[string]string{}
		for _, op := range ops {
			switch op.Kind {
			case OpLogin:
				want, ok := current[op.Account]
				if !ok {
					want = seed[op.Account]
				}
				if op.Password != want {
					t.Fatalf("login for %s with %q, want %q", op.Account, op.Password, want)
				}
			case OpChpass:
				current[op.Account] = op.Password
				chpasses++
			}
		}
	}
	if chpasses == 0 {
		t.Fatal("hijacker mix produced no password changes")
	}
}

// TestMixFromPopulations: the blended mix sits inside the hull of the
// per-channel populations.
func TestMixFromPopulations(t *testing.T) {
	mix := MixFromPopulations(attacker.DefaultPopulations())
	if mix.GoldDigger <= 0 || mix.GoldDigger >= 1 {
		t.Fatalf("gold digger prob %v outside (0,1)", mix.GoldDigger)
	}
	if mix.Hijacker <= 0 || mix.Hijacker >= 1 {
		t.Fatalf("hijacker prob %v outside (0,1)", mix.Hijacker)
	}
	if mix.Spammer <= 0 || mix.Spammer >= 1 {
		t.Fatalf("spammer prob %v outside (0,1)", mix.Spammer)
	}
}

// TestLoadgenAgainstFleet: end-to-end — snapshot, two shards, router,
// deterministic plan, real sockets. Zero protocol errors, zero
// timeouts, zero rejections: the plan's password evolution and
// account routing both hold under concurrency.
func TestLoadgenAgainstFleet(t *testing.T) {
	raddr, creds := fleetFixture(t, 12, 2)
	cfg := testPlanConfig(creds)
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	stats, err := Run(ctx, RunConfig{Addr: raddr, QPS: 0, Timeout: 10 * time.Second, Label: "test fleet"}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 0 || stats.Timeouts != 0 {
		t.Fatalf("faults under load: %d errors, %d timeouts", stats.Errors, stats.Timeouts)
	}
	if stats.Rejected != 0 {
		t.Fatalf("%d rejected requests; the plan should be fully accepted", stats.Rejected)
	}
	if stats.Requests != int64(plan.Ops()) {
		t.Fatalf("executed %d of %d planned requests", stats.Requests, plan.Ops())
	}
	if stats.Hist.Count() != stats.Requests {
		t.Fatalf("histogram holds %d samples for %d requests", stats.Hist.Count(), stats.Requests)
	}
	if stats.Hist.Quantile(0.99) <= 0 {
		t.Fatal("p99 is zero under real load")
	}
}

// TestLoadgenPacing: with a QPS target, the run takes at least the
// scheduled span (open-loop pacing really paces).
func TestLoadgenPacing(t *testing.T) {
	raddr, creds := fleetFixture(t, 4, 1)
	cfg := testPlanConfig(creds)
	cfg.Workers = 2
	cfg.Visits = 4
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := plan.Ops()
	const qps = 200.0
	start := time.Now()
	stats, err := Run(context.Background(), RunConfig{Addr: raddr, QPS: qps, Timeout: 10 * time.Second}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 0 {
		t.Fatalf("%d errors", stats.Errors)
	}
	// Expected span is ops/qps; allow generous slack below it since
	// per-worker schedules interleave, but a closed-loop burst would
	// finish orders of magnitude faster than half the target span.
	minSpan := time.Duration(float64(ops) / qps * 0.4 * float64(time.Second))
	if got := time.Since(start); got < minSpan {
		t.Fatalf("run finished in %v, pacing demands at least %v for %d ops", got, minSpan, ops)
	}
}

// stubFleet stands in for the fleet: answer returns the reply to the
// n-th frame (from 1) of a connection, and a nil reply leaves that
// frame unanswered.
func stubFleet(t *testing.T, answer func(n int) []byte) string {
	t.Helper()
	srv := wire.NewServer("stub", func(c *wire.Conn) {
		n := 0
		c.Serve(func([]byte) bool {
			n++
			reply := answer(n)
			if reply == nil {
				return true
			}
			_, err := c.Write(reply)
			return err == nil
		})
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// visit is one worker's plan: a login followed by n-1 inbox lists.
func visit(n int) *Plan {
	ops := []Op{{Kind: OpLogin, Account: testAddr(0), Password: testPw(0)}}
	for len(ops) < n {
		ops = append(ops, Op{Kind: OpList, Account: testAddr(0), Folder: "inbox"})
	}
	return &Plan{Workers: [][]Op{ops}}
}

// TestRunShowsStall: one connection sends 60 requests at 200 req/s and
// the third reply stalls 200 ms. The requests queued behind it wait
// for it, and timing each from its due time puts that wait in their
// latency, so the median is far above a round trip. Timing from the
// send would hide the stall.
func TestRunShowsStall(t *testing.T) {
	addr := stubFleet(t, func(n int) []byte {
		if n == 3 {
			time.Sleep(200 * time.Millisecond)
		}
		return []byte("{\"ok\":true}\n")
	})
	stats, err := Run(context.Background(), RunConfig{Addr: addr, QPS: 200}, visit(60))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 60 || stats.Errors != 0 || stats.Timeouts != 0 || stats.Rejected != 0 {
		t.Fatalf("%d requests, %d errors, %d timeouts, %d rejected; want 60 clean requests",
			stats.Requests, stats.Errors, stats.Timeouts, stats.Rejected)
	}
	if p50 := stats.Hist.Quantile(0.5); p50 < 20*time.Millisecond {
		t.Fatalf("p50 %v behind a 200 ms stall, want at least 20ms", p50)
	}
}

// TestRunCountsTimeout: a server that never replies costs the first
// request its deadline. That is a timeout, not a protocol error, and
// the rest of the visit is skipped with the dropped connection.
func TestRunCountsTimeout(t *testing.T) {
	addr := stubFleet(t, func(int) []byte { return nil })
	stats, err := Run(context.Background(), RunConfig{Addr: addr, Timeout: 50 * time.Millisecond}, visit(3))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Timeouts != 1 || stats.Errors != 0 || stats.Requests != 1 {
		t.Fatalf("%d timeouts, %d errors over %d requests; want 1 timeout, 0 errors, 1 request",
			stats.Timeouts, stats.Errors, stats.Requests)
	}
}

// TestRunRejectsEmptyPlan: guard rails.
func TestRunRejectsEmptyPlan(t *testing.T) {
	if _, err := Run(context.Background(), RunConfig{Addr: "127.0.0.1:1"}, &Plan{}); err == nil {
		t.Fatal("empty plan accepted")
	}
	if _, err := BuildPlan(PlanConfig{Workers: 1, Visits: 1}); err == nil {
		t.Fatal("plan without credentials accepted")
	}
}
