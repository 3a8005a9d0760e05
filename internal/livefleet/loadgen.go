package livefleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/attacker"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/webmail"
	"repro/internal/wire"
)

// Mix is the per-visit behaviour mix the load generator replays,
// derived from the attacker populations so generated traffic has the
// same op shape the in-process engine produces: every visit logs in
// and lists the inbox (the curious baseline), gold diggers add
// searches and reads, spammers add sends, hijackers change the
// password (which ends the visit — the old session cookie is dead).
type Mix struct {
	GoldDigger float64 // P(visit runs searches + reads)
	Hijacker   float64 // P(visit ends with a password change)
	Spammer    float64 // P(visit sends spam)
	Activity   float64 // P(visit scrapes the activity page)
}

// MixFromPopulations averages the four channel populations into one
// mix — the load generator models the blended arrival stream, not one
// outlet. Activity scraping is not a population parameter; the paper's
// attackers rarely checked it, so a small constant stands in.
func MixFromPopulations(p attacker.Populations) Mix {
	avg := func(f func(attacker.Population) float64) float64 {
		return (f(p.Paste) + f(p.PasteRussian) + f(p.Forum) + f(p.Malware)) / 4
	}
	return Mix{
		GoldDigger: avg(func(pp attacker.Population) float64 { return pp.GoldDiggerProb }),
		Hijacker:   avg(func(pp attacker.Population) float64 { return pp.HijackerProb }),
		Spammer:    avg(func(pp attacker.Population) float64 { return pp.SpammerProb }),
		Activity:   0.10,
	}
}

// Op kinds. OpLogin is also the resync point: after a transport
// error a worker skips forward to the next OpLogin, because every op
// between two logins assumed the now-dead session.
const (
	OpLogin    = "login"
	OpList     = "list"
	OpRead     = "read"
	OpSearch   = "search"
	OpSend     = "send"
	OpChpass   = "chpass"
	OpActivity = "activity"
)

// Op is one precomputed request. Everything — account, the password
// valid at that point in the schedule, spam text, search query — is
// resolved at plan time, so executing the plan draws zero randomness
// and two runs of the same plan send byte-identical request streams.
type Op struct {
	Kind     string
	Account  string
	Password string // login: current password; chpass: the new one
	Folder   string
	ID       int64
	Limit    int // list: newest-N bound (0 = whole folder)
	To       string
	Subject  string
	Body     string
	Query    string
}

// Plan is a deterministic load schedule: Workers[w] is the op stream
// worker w replays in order. Workers own disjoint account sets, so
// plan-time password evolution (a chpass changes what later logins
// must present) never races across workers at run time.
type Plan struct {
	Seed    int64
	Workers [][]Op
}

// Ops returns the total number of scheduled requests.
func (p *Plan) Ops() int {
	n := 0
	for _, w := range p.Workers {
		n += len(w)
	}
	return n
}

// PlanConfig parameterises BuildPlan.
type PlanConfig struct {
	Seed    int64
	Workers int // concurrent connections; also the account-ownership stripes
	Visits  int // attacker visits per worker
	Mailbox int // seeded messages per account (read IDs drawn from [1,Mailbox])
	// ListLimit bounds every list op to the newest N messages
	// (Request.Limit); 0 lists whole folders. Bounding it keeps
	// response size — and therefore measured latency — independent of
	// how deeply the fleet's mailboxes were seeded.
	ListLimit int
	Creds     []Credential
	Mix       Mix
}

// BuildPlan expands the config into a fully resolved schedule. Same
// config, same plan — the determinism test replays it twice.
func BuildPlan(cfg PlanConfig) (*Plan, error) {
	if cfg.Workers <= 0 || cfg.Visits <= 0 {
		return nil, fmt.Errorf("livefleet: plan needs positive workers and visits")
	}
	if len(cfg.Creds) == 0 {
		return nil, fmt.Errorf("livefleet: plan needs credentials")
	}
	if cfg.Mailbox <= 0 {
		cfg.Mailbox = 10
	}
	keywords := attacker.GoldKeywords()
	subjects := attacker.SpamSubjects()
	bodies := attacker.SpamBodies()
	domains := attacker.VictimDomains()

	plan := &Plan{Seed: cfg.Seed, Workers: make([][]Op, cfg.Workers)}
	root := rng.New(cfg.Seed)
	for w := 0; w < cfg.Workers; w++ {
		// Ownership stripe: worker w exercises creds[i] with i%Workers
		// == w. A worker with no accounts (more workers than creds)
		// gets an empty schedule rather than an error.
		var owned []Credential
		for i := w; i < len(cfg.Creds); i += cfg.Workers {
			owned = append(owned, cfg.Creds[i])
		}
		if len(owned) == 0 {
			continue
		}
		passwords := make(map[string]string, len(owned))
		for _, c := range owned {
			passwords[c.Address] = c.Password
		}
		src := root.ForkShard(w, cfg.Workers)
		var ops []Op
		for v := 0; v < cfg.Visits; v++ {
			acct := owned[src.Intn(len(owned))].Address
			ops = append(ops,
				Op{Kind: OpLogin, Account: acct, Password: passwords[acct]},
				Op{Kind: OpList, Account: acct, Folder: "inbox", Limit: cfg.ListLimit},
			)
			if src.Bool(cfg.Mix.GoldDigger) {
				for _, q := range rng.PickN(src, keywords, 2+src.Intn(3)) {
					ops = append(ops, Op{Kind: OpSearch, Account: acct, Query: q})
				}
				reads := 1 + src.Intn(3)
				for i := 0; i < reads; i++ {
					ops = append(ops, Op{Kind: OpRead, Account: acct, ID: int64(1 + src.Intn(cfg.Mailbox))})
				}
			}
			if src.Bool(cfg.Mix.Spammer) {
				sends := 1 + src.Intn(3)
				for i := 0; i < sends; i++ {
					ops = append(ops, Op{
						Kind:    OpSend,
						Account: acct,
						To:      fmt.Sprintf("user%04d@%s", src.Intn(10000), rng.Pick(src, domains)),
						Subject: rng.Pick(src, subjects),
						Body:    rng.Pick(src, bodies),
					})
				}
			}
			if src.Bool(cfg.Mix.Activity) {
				ops = append(ops, Op{Kind: OpActivity, Account: acct})
			}
			if src.Bool(cfg.Mix.Hijacker) {
				// Password evolution happens at plan time: later visits
				// to this account must log in with the new password.
				next := fmt.Sprintf("lg-%d-%d-%d", w, v, src.Intn(1_000_000))
				ops = append(ops, Op{Kind: OpChpass, Account: acct, Password: next})
				passwords[acct] = next
			}
		}
		plan.Workers[w] = ops
	}
	return plan, nil
}

// RunConfig parameterises Run.
type RunConfig struct {
	// Addr is the router (or single shard) to load.
	Addr string
	// QPS is the aggregate open-loop request rate target; 0 means
	// as-fast-as-possible (closed loop).
	QPS float64
	// Timeout is the per-request deadline (default 5s); an expiry
	// counts in Timeouts and drops the worker's connection.
	Timeout time.Duration
	// TolerateUnavailable treats down-shard refusals (shard down,
	// shard unavailable, shard connection lost) as expected chaos
	// traffic: they tally in Unavailable instead of Rejected, the
	// worker reconnects and resyncs to its next visit, and they never
	// fail the run. Off, they count as ordinary rejections and the
	// dropped connection surfaces as a protocol error on the next op —
	// the strict mode CI's steady-state smoke gates on.
	TolerateUnavailable bool
	// Label names the run in the report section.
	Label string
}

// unavailableError reports whether a rejection is the router's
// fault-surface for a down shard rather than an application refusal
// (bad password, unknown message). The three strings are the router's
// client-visible vocabulary: fast-fail on a known-down shard, a
// failed dial/round-trip, and a bound session dying mid-flight.
func unavailableError(msg string) bool {
	switch msg {
	case "webmail: shard down", "webmail: shard unavailable", "webmail: shard connection lost":
		return true
	}
	return false
}

// Run replays the plan against addr and returns the merged serving
// stats. Worker w is connection w of one wire.Schedule at QPS, so the
// workers interleave into one open loop, and each request is timed
// from its due time: a stalled reply shows in the latency of the
// requests queued behind it.
func Run(ctx context.Context, cfg RunConfig, plan *Plan) (report.ServingStats, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	workers := len(plan.Workers)
	if workers == 0 {
		return report.ServingStats{}, fmt.Errorf("livefleet: empty plan")
	}
	tallies := make([]report.ServingStats, workers)
	sched := wire.Schedule{Start: time.Now(), Rate: cfg.QPS, Conns: workers}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		if len(plan.Workers[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runWorker(ctx, cfg, sched, w, plan.Workers[w], &tallies[w])
		}(w)
	}
	wg.Wait()
	out := report.ServingStats{Label: cfg.Label, Elapsed: time.Since(sched.Start)}
	for i := range tallies {
		out.Add(&tallies[i])
	}
	if cfg.Label == "" {
		out.Label = fmt.Sprintf("%d workers", workers)
	}
	return out, nil
}

// runWorker replays one op stream over one connection, reconnecting
// and resyncing to the next OpLogin after transport failures. The ops
// it skips while resyncing take no place in the schedule.
func runWorker(ctx context.Context, cfg RunConfig, sched wire.Schedule, w int, ops []Op, t *report.ServingStats) {
	t.Hist = &stats.LatencyHist{}
	// Claimed client identity: parseable, distinct per worker, TEST-NET.
	ip := fmt.Sprintf("203.0.113.%d", 1+w%254)
	var conn *wire.Client[webmail.Request, wire.Status]
	hangUp := func() {
		conn.Close()
		conn = nil
	}
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	resync := false
	sent := 0
	for _, op := range ops {
		if resync && op.Kind != OpLogin {
			continue // the session these ops assumed is gone
		}
		due, err := sched.Wait(ctx, w, sent)
		if err != nil {
			return
		}
		sent++
		if conn == nil {
			dctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
			conn, err = wire.Dial[webmail.Request, wire.Status](dctx, cfg.Addr)
			cancel()
			if err != nil {
				t.Errors++
				resync = true
				continue
			}
			resync = false
		}
		// The deadline counts from the send, so falling behind the
		// schedule never turns into a timeout.
		conn.SetDeadline(time.Now().Add(cfg.Timeout))
		resp, err := conn.Do(requestFromOp(&op, ip))
		t.Requests++
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Timeouts++
			} else {
				t.Errors++
			}
			hangUp()
			resync = true
			continue
		}
		t.Hist.Record(time.Since(due))
		if !resp.OK {
			if cfg.TolerateUnavailable && unavailableError(resp.Error) {
				// Expected down-shard refusal: the router either
				// fast-failed this login or tore down the bound
				// session, and in the latter case it has already
				// closed our connection. Reconnect for the next visit
				// either way.
				t.Unavailable++
				hangUp()
				resync = true
				continue
			}
			t.Rejected++
			if op.Kind == OpLogin {
				resync = true // visit unusable without a session
			}
			continue
		}
		resync = false
		if op.Kind == OpChpass {
			// chpass self-invalidates the session server-side state the
			// plan assumes; start the next visit on a fresh connection.
			hangUp()
			resync = true
		}
	}
}

// requestFromOp converts a planned op to a wire request.
func requestFromOp(op *Op, ip string) webmail.Request {
	req := webmail.Request{Op: op.Kind, Folder: op.Folder, ID: webmail.MessageID(op.ID), Limit: op.Limit,
		To: op.To, Subject: op.Subject, Body: op.Body, Query: op.Query}
	switch op.Kind {
	case OpLogin:
		req.Account = op.Account
		req.Password = op.Password
		req.IP = ip
		req.City = "Berlin"
		req.Country = "DE"
		req.Lat, req.Lon = 52.52, 13.405
		req.UserAgent = "loadgen/1"
	case OpChpass:
		req.Password = op.Password
	}
	return req
}
