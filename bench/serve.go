package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/attacker"
	"repro/internal/geo"
	"repro/internal/honeynet"
	"repro/internal/livefleet"
	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/webmail"
)

// Serving workloads. Load comes from this one process over two client
// connections, sized for a 2-vCPU host: the servers, the router and
// the load generator share the machine as they would share a small
// deployment box.
const (
	serveConns     = 2
	requestTimeout = 2 * time.Second
	// segments is how many times the untraced pass boots a fresh fleet
	// (or builds a fresh index): each boot is one set-up sample.
	segments = 4
	// loadsPerSetup is how many pairs of an open-loop load and a
	// capacity burst run on each boot, each on fresh connections.
	loadsPerSetup = 3
	// liveCapRate sizes the plan of a live-serve capacity burst: about
	// twice the most two closed-loop connections reach through the
	// router on a 2-vCPU host.
	liveCapRate = 40000
)

// liveServe is the webmail fleet: a Shards=2, Scale=10 deployment
// (1,000 accounts) behind the partition-aware router. refRate is where
// the end-to-end latency is measured; the ladder brackets the knee.
var liveServe = serving{
	refRate: 4000,
	ladder:  []float64{2000, 4000, 6000, 8000},
	slo:     5 * time.Millisecond,
}

// c3Serve is the credential-checking service over a 1M-credential
// index. Its knee is set by the round trip of each connection's one
// outstanding request, not by the handler.
var c3Serve = serving{
	refRate: 10000,
	ladder:  []float64{5000, 10000, 15000, 20000},
	slo:     time.Millisecond,
}

// serving is a serving workload's rate ladder. A step meets the SLO
// when its p99 latency and the p99 lateness of its last second stay
// within slo and no request failed. The SLO is on p99, not p99.9: on
// a small shared VM an idle thread sleeping to a 200µs schedule
// already wakes up to 5ms late at p99.9, so p99.9 measures the host.
type serving struct {
	refRate float64
	ladder  []float64
	slo     time.Duration
}

// phases returns the warm-up and the recorded part of one open-loop
// load. The untraced pass spreads its budget over segments ×
// loadsPerSetup short loads, each on fresh connections: the latency a
// connection sees depends on where its threads land, so many short
// loads give a steadier median than a few long ones. The traced pass
// gives every ladder step and leg a sixth of the budget.
func phases(c *runCtx) (warm, dur time.Duration) {
	switch {
	case c.tiny:
		return 10 * time.Millisecond, 40 * time.Millisecond
	case c.traced:
		return 300 * time.Millisecond, max(c.seconds/6, time.Second)
	}
	bw, bd := burst(c)
	pair := c.seconds / (segments * loadsPerSetup)
	return 200 * time.Millisecond, max(pair-bw-bd-200*time.Millisecond, 300*time.Millisecond)
}

// burst returns the warm-up and recorded part of the closed-loop
// capacity burst that follows every untraced open-loop load.
func burst(c *runCtx) (warm, dur time.Duration) {
	if c.tiny {
		return 10 * time.Millisecond, 30 * time.Millisecond
	}
	return 100 * time.Millisecond, 400 * time.Millisecond
}

// tallyLoad adds a load's requests and failures to the run.
func tallyLoad(c *runCtx, what string, r *loadResult) {
	c.res.attempted += r.sent
	c.res.failed += r.failed
	if r.failed > 0 {
		c.res.problem("%s: %d of %d requests failed: %v", what, r.failed, r.sent, r.errs)
	}
}

// servingSamples collects the untraced pass of a serving workload:
// each open-loop load's median latency, each capacity burst's
// throughput, and each set-up's time and live heap.
type servingSamples struct {
	p50s, caps []float64
	requests   int
	setups     []time.Duration
	heaps      []float64
}

// openLoop runs one open-loop load at the reference rate.
func (m *servingSamples) openLoop(c *runCtx, l *load) error {
	r, err := l.run()
	if err != nil {
		return err
	}
	tallyLoad(c, "open loop", r)
	m.p50s = append(m.p50s, ms(quantile(sortDurations(r.lat), 0.5)))
	m.requests += len(r.lat)
	return nil
}

// capacity runs one closed-loop burst.
func (m *servingSamples) capacity(c *runCtx, l *load) error {
	r, err := l.run()
	if err != nil {
		return err
	}
	tallyLoad(c, "capacity", r)
	m.caps = append(m.caps, float64(r.completed)/l.dur.Seconds())
	return nil
}

// report sets the end-to-end metrics: each a median over the loads,
// bursts or set-ups of the run, so one disturbed load cannot move it.
func (m *servingSamples) report(c *runCtx) {
	c.res.set("p50_ms", median(m.p50s), m.requests)
	c.res.set("throughput_per_s", median(m.caps), len(m.caps))
	c.res.set("setup_s", medianDuration(m.setups).Seconds(), len(m.setups))
	c.res.set("live_heap_mib", median(m.heaps), len(m.heaps))
}

// servingTarget is one booted fleet or built index under the
// untraced pass: it makes the k-th pair of loads of segment s.
type servingTarget interface {
	openLoad(c *runCtx, s, k int, warm, dur time.Duration) (*load, error)
	capLoad(c *runCtx, s, k int, warm, dur time.Duration) (*load, error)
	close()
}

// runServing is the untraced pass of a serving workload: segments
// set-ups, each measured for its time and live heap and then loaded
// with loadsPerSetup pairs of an open-loop load at the reference rate
// and a closed-loop capacity burst.
func runServing(c *runCtx, start func(parent int64) (servingTarget, time.Duration, error)) error {
	warm, dur := phases(c)
	capWarm, capDur := burst(c)
	var m servingSamples
	for s := 0; s < segments; s++ {
		id := c.tr.open("segment", 0)
		runtime.GC()
		t, setup, err := start(id)
		if err != nil {
			return err
		}
		m.setups = append(m.setups, setup)
		m.heaps = append(m.heaps, liveHeapMiB())
		for k := 0; k < loadsPerSetup && err == nil; k++ {
			var l *load
			if l, err = t.openLoad(c, s, k, warm, dur); err == nil {
				err = m.openLoop(c, l)
			}
			if err == nil {
				if l, err = t.capLoad(c, s, k, capWarm, capDur); err == nil {
					err = m.capacity(c, l)
				}
			}
		}
		t.close()
		c.tr.close(id)
		if err != nil {
			return err
		}
	}
	m.report(c)
	return nil
}

// ladderStep is one rung of the rate ladder.
type ladderStep struct {
	rate float64
	r    *loadResult
}

// reportLadder sets the ladder metrics: each step's tail latency and
// last-second lateness, and the highest rate that met the SLO.
func reportLadder(c *runCtx, s serving, steps []ladderStep) {
	best := 0.0
	for i, st := range steps {
		sorted := sortDurations(st.r.lat)
		p99 := quantile(sorted, 0.99)
		late := quantile(sortDurations(st.r.lateLast), 0.99)
		c.res.set(fmt.Sprintf("ladder.%d.p99_us", i+1), us(p99), len(sorted))
		c.res.set(fmt.Sprintf("ladder.%d.p999_us", i+1), us(quantile(sorted, 0.999)), len(sorted))
		c.res.set(fmt.Sprintf("ladder.%d.late_ms", i+1), ms(late), len(st.r.lateLast))
		if p99 <= s.slo && late <= s.slo && st.r.failed == 0 && st.rate > best {
			best = st.rate
		}
	}
	c.res.set("ladder.max_qps_at_slo", best, len(steps))
}

// ---- live-serve ----

// liveSnapshot builds the fleet's deployment and writes its post-setup
// snapshot, the state every shard boots from.
func liveSnapshot(c *runCtx) (string, time.Duration, error) {
	scale := 10
	if c.tiny {
		scale = 1
	}
	exp, err := honeynet.New(honeynet.Config{
		Seed: c.seed, SetupSeed: deriveSeed(c.seed, "live-setup"),
		Shards: 2, SetupWorkers: engineWorkers, ScaleFactor: scale,
	})
	if err != nil {
		return "", 0, err
	}
	if err := exp.Setup(); err != nil {
		return "", 0, err
	}
	path := filepath.Join(c.outDir, fmt.Sprintf("live-serve-%d.snap", os.Getpid()))
	id := c.tr.open("snapshot.write", 0)
	err = exp.WriteSnapshotFile(path)
	return path, c.tr.close(id), err
}

// liveFleet is one booted fleet: two webmail shards and the router.
type liveFleet struct {
	servers []*webmail.Server
	addrs   []string
	creds   [][]livefleet.Credential
	router  *livefleet.Router
	addr    string
}

func shardConfig() webmail.Config {
	// The shards' virtual clock stands still, so the send-rate window
	// never slides: sustained replayed spam would trip the abuse
	// detector by design. The live-fleet smoke runs with it off too.
	return webmail.Config{
		Clock: simtime.NewClock(honeynet.DefaultStart()),
		Abuse: webmail.AbuseConfig{Disabled: true},
	}
}

// bootFleet boots every shard from the snapshot, starts its server and
// fronts the shards with a router; the returned duration is the
// workload's set-up time.
func bootFleet(c *runCtx, snap string, parent int64) (*liveFleet, time.Duration, error) {
	id := c.tr.open("livefleet.boot", parent)
	f := &liveFleet{}
	for part := 0; part < serveConns; part++ {
		svc, creds, err := livefleet.BootService(snap, part, serveConns, shardConfig())
		if err != nil {
			f.close()
			return nil, 0, err
		}
		srv := webmail.NewServer(svc)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, 0, err
		}
		f.servers = append(f.servers, srv)
		f.addrs = append(f.addrs, addr)
		f.creds = append(f.creds, creds)
	}
	router, err := livefleet.NewRouter(livefleet.RouterConfig{Shards: f.addrs})
	if err == nil {
		f.router = router
		f.addr, err = router.Listen("127.0.0.1:0")
	}
	d := c.tr.close(id)
	if err != nil {
		f.close()
		return nil, 0, err
	}
	return f, d, nil
}

// close stops the router and the shards and waits for their
// goroutines.
func (f *liveFleet) close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
}

func (f *liveFleet) allCreds() []livefleet.Credential {
	var out []livefleet.Credential
	for _, cs := range f.creds {
		out = append(out, cs...)
	}
	return out
}

// slice returns every n-th of the fleet's accounts, starting at the
// j-th: accounts of both shards, disjoint from every other slice.
// Each untraced load replays its own slice, so a capacity burst that
// stops part way through its plan leaves no later load logging in with
// passwords its unsent chpass requests never set.
func (f *liveFleet) slice(j, n int) []livefleet.Credential {
	var out []livefleet.Credential
	for i, cr := range f.allCreds() {
		if i%n == j {
			out = append(out, cr)
		}
	}
	return out
}

func (f *liveFleet) openLoad(c *runCtx, s, k int, warm, dur time.Duration) (*load, error) {
	lp, err := buildLivePlan(c, f.slice(2*k, 2*loadsPerSetup), fmt.Sprintf("live-open-%d-%d", s, k), perConn(liveServe.refRate, warm+dur))
	if err != nil {
		return nil, err
	}
	return lp.load(f.addr, liveServe.refRate, warm, dur), nil
}

// capLoad plans for a rate above any a closed loop reaches, so the
// burst never runs out of requests.
func (f *liveFleet) capLoad(c *runCtx, s, k int, warm, dur time.Duration) (*load, error) {
	lp, err := buildLivePlan(c, f.slice(2*k+1, 2*loadsPerSetup), fmt.Sprintf("live-cap-%d-%d", s, k), perConn(liveCapRate, warm+dur))
	if err != nil {
		return nil, err
	}
	return lp.load(f.addr, 0, warm, dur), nil
}

// livePlan is the replay of one load: per connection, the planned ops
// and their wire frames.
type livePlan struct {
	frames [][][]byte
	ops    [][]livefleet.Op
}

// buildLivePlan builds a plan over creds with at least n frames per
// connection, cut after the last whole visit.
func buildLivePlan(c *runCtx, creds []livefleet.Credential, label string, n int) (*livePlan, error) {
	plan, err := livefleet.BuildPlan(livefleet.PlanConfig{
		Seed:      deriveSeed(c.seed, label),
		Workers:   serveConns,
		Visits:    n/2 + 1, // every visit is at least a login and a list
		Mailbox:   90,
		ListLimit: 25,
		Creds:     creds,
		Mix:       livefleet.MixFromPopulations(attacker.DefaultPopulations()),
	})
	if err != nil {
		return nil, err
	}
	lp := &livePlan{}
	for w, ops := range plan.Workers {
		cut := min(n, len(ops))
		for cut < len(ops) && ops[cut].Kind != livefleet.OpLogin {
			cut++
		}
		ops = ops[:cut]
		ip := fmt.Sprintf("203.0.113.%d", 1+w)
		frames := make([][]byte, len(ops))
		for i, op := range ops {
			data, err := json.Marshal(wireRequest(op, ip))
			if err != nil {
				return nil, err
			}
			frames[i] = append(data, '\n')
		}
		lp.frames = append(lp.frames, frames)
		lp.ops = append(lp.ops, ops)
	}
	return lp, nil
}

// wireRequest is the webmail frame of a planned op, as the live-fleet
// load generator sends it.
func wireRequest(op livefleet.Op, ip string) webmail.Request {
	req := webmail.Request{Op: op.Kind, Folder: op.Folder, ID: webmail.MessageID(op.ID), Limit: op.Limit,
		To: op.To, Subject: op.Subject, Body: op.Body, Query: op.Query}
	switch op.Kind {
	case livefleet.OpLogin:
		req.Account, req.Password = op.Account, op.Password
		req.IP, req.City, req.Country = ip, "Berlin", "DE"
		req.Lat, req.Lon = 52.52, 13.405
		req.UserAgent = "bench/1"
	case livefleet.OpChpass:
		req.Password = op.Password
	}
	return req
}

// perConn is one connection's share of rate over d.
func perConn(rate float64, d time.Duration) int {
	return int(rate*d.Seconds())/serveConns + 1
}

// load replays the plan against addr.
func (lp *livePlan) load(addr string, rate float64, warm, dur time.Duration) *load {
	return &load{
		addr: addr, rate: rate, warm: warm, dur: dur, frames: lp.frames,
		check:   func(_, _ int, reply []byte) error { return checkOK(reply) },
		timeout: requestTimeout,
		name:    func(conn, i int) string { return "webmail." + lp.ops[conn][i].Kind },
	}
}

func runLiveServe(c *runCtx) error {
	snap, write, err := liveSnapshot(c)
	defer os.Remove(snap)
	if err != nil {
		return err
	}
	if c.traced {
		return liveTraced(c, snap, write)
	}
	return runServing(c, func(parent int64) (servingTarget, time.Duration, error) {
		f, boot, err := bootFleet(c, snap, parent)
		if err == nil {
			c.res.counts["livefleet.accounts"] = float64(len(f.allCreds()))
		}
		return f, boot, err
	})
}

// liveTraced is the traced pass of live-serve: the rate ladder through
// the router, then the same plan in three legs at the reference rate —
// in process, direct to shard 0, and via the router — so the router
// hop and the wire cost can be told apart, then one closed-loop burst
// under the CPU profiler.
func liveTraced(c *runCtx, snap string, write time.Duration) error {
	warm, dur := phases(c)
	c.res.set("snapshot.write_s", write.Seconds(), 1)
	var boots []time.Duration
	boot := func(parent int64) (*liveFleet, error) {
		runtime.GC()
		f, d, err := bootFleet(c, snap, parent)
		if err == nil {
			boots = append(boots, d)
		}
		return f, err
	}

	var steps []ladderStep
	for i, rate := range liveServe.ladder {
		id := c.tr.open(fmt.Sprintf("ladder.%d", i+1), 0)
		f, err := boot(id)
		if err != nil {
			return err
		}
		lp, err := buildLivePlan(c, f.allCreds(), fmt.Sprintf("live-ladder-%d", i), perConn(rate, warm+dur))
		var r *loadResult
		if err == nil {
			r, err = lp.load(f.addr, rate, warm, dur).run()
		}
		if err == nil && rate == liveServe.refRate {
			st := f.router.Stats()
			var dials, retries, evictions, high float64
			for _, sh := range st.Shards {
				dials += float64(sh.Dials)
				retries += float64(sh.Retries)
				evictions += float64(sh.Evictions)
				if h := float64(sh.InFlightHighwater); h > high {
					high = h
				}
			}
			c.res.set("router.dials", dials, len(st.Shards))
			c.res.set("router.retries", retries, len(st.Shards))
			c.res.set("router.evictions", evictions, len(st.Shards))
			c.res.set("router.inflight_high", high, len(st.Shards))
		}
		f.close()
		c.tr.close(id)
		if err != nil {
			return err
		}
		tallyLoad(c, fmt.Sprintf("ladder step %v/s", rate), r)
		steps = append(steps, ladderStep{rate: rate, r: r})
	}
	reportLadder(c, liveServe, steps)

	// The legs replay one plan over shard 0's accounts, so every leg
	// sends the same requests to the same shard.
	svc0, creds0, err := livefleet.BootService(snap, 0, serveConns, shardConfig())
	if err != nil {
		return err
	}
	lp, err := buildLivePlan(c, creds0, "live-legs", perConn(liveServe.refRate, warm+dur))
	if err != nil {
		return err
	}
	id := c.tr.open("leg.inprocess", 0)
	inproc, err := runInProcess(c, svc0, lp.ops)
	c.tr.close(id)
	if err != nil {
		return err
	}

	leg := func(name string, traced bool) (*loadResult, error) {
		id := c.tr.open("leg."+name, 0)
		defer c.tr.close(id)
		f, err := boot(id)
		if err != nil {
			return nil, err
		}
		defer f.close()
		addr := f.addr
		if name == "shard" {
			addr = f.addrs[0]
		}
		l := lp.load(addr, liveServe.refRate, warm, dur)
		if traced {
			l.tr, l.parent = c.tr, id
		}
		r, err := l.run()
		if err == nil {
			tallyLoad(c, "leg "+name, r)
		}
		return r, err
	}
	shard, err := leg("shard", false)
	if err != nil {
		return err
	}
	router, err := leg("router", false)
	if err != nil {
		return err
	}
	tracedRouter, err := leg("router", true)
	if err != nil {
		return err
	}
	id = c.tr.open("capacity", 0)
	f, err := boot(id)
	if err == nil {
		var lp *livePlan
		if lp, err = buildLivePlan(c, f.allCreds(), "live-capacity", perConn(liveCapRate, warm+dur)); err == nil {
			err = profileCapacity(c, lp.load(f.addr, 0, warm, dur))
		}
		f.close()
	}
	c.tr.close(id)
	if err != nil {
		return err
	}

	shardSorted, routerSorted := sortDurations(shard.lat), sortDurations(router.lat)
	shardP50, routerP50 := quantile(shardSorted, 0.5), quantile(routerSorted, 0.5)
	c.res.set("shard.p50_us", us(shardP50), len(shardSorted))
	c.res.set("shard.p999_us", us(quantile(shardSorted, 0.999)), len(shardSorted))
	c.res.set("router.p50_us", us(routerP50), len(routerSorted))
	c.res.set("router.p999_us", us(quantile(routerSorted, 0.999)), len(routerSorted))
	c.res.set("router.hop_us", us(routerP50-shardP50), len(routerSorted))
	c.res.set("wire.overhead_us", us(shardP50-quantile(sortDurations(inproc.all), 0.5)), len(shardSorted))
	for _, kind := range []string{"login", "list", "search", "read", "send", "chpass", "activity"} {
		c.res.set("webmail.op."+kind+"_us", us(medianDuration(inproc.byKind[kind])), len(inproc.byKind[kind]))
	}
	c.res.set("livefleet.boot_s", medianDuration(boots).Seconds(), len(boots))
	c.res.set("loadgen.late_ms", ms(router.lateP99()), len(router.late))
	tracedP50 := quantile(sortDurations(tracedRouter.lat), 0.5)
	c.res.set("trace.overhead", float64(tracedP50)/float64(routerP50), len(tracedRouter.lat))
	return nil
}

// profileCapacity reports the cpu.* and self.* shares of a CPU profile
// taken through one closed-loop burst. A serving profile is taken at
// capacity because the kernel checks a thread's CPU timer only when the
// thread is running at a scheduler tick: on a small VM, threads that
// run in bursts of microseconds are rarely caught, and at the reference
// rate the profiler saw about half of the CPU time the process used.
func profileCapacity(c *runCtx, l *load) error {
	var r *loadResult
	raw, samples, err := profileCPU(func() (err error) { r, err = l.run(); return err })
	if err != nil {
		return err
	}
	tallyLoad(c, "profiled capacity", r)
	attribute(samples).report(c.res)
	return writeProfile(c, 1, raw)
}

// inProcess holds in-process op latencies.
type inProcess struct {
	all    []time.Duration
	byKind map[string][]time.Duration
}

// runInProcess replays the plan's ops straight into the service — the
// Service.Login and Session calls each wire op maps to — one worker's
// stream after the other.
func runInProcess(c *runCtx, svc *webmail.Service, ops [][]livefleet.Op) (*inProcess, error) {
	out := &inProcess{byKind: map[string][]time.Duration{}}
	ep := netsim.Endpoint{
		Addr: netip.MustParseAddr("203.0.113.1"), City: "Berlin", Country: "DE",
		Point: geo.Point{Lat: 52.52, Lon: 13.405}, UserAgent: "bench/1",
	}
	for _, stream := range ops {
		var se *webmail.Session
		for _, op := range stream {
			start := time.Now()
			var err error
			switch op.Kind {
			case livefleet.OpLogin:
				se, err = svc.Login(op.Account, op.Password, "", ep)
			case livefleet.OpList:
				_, err = se.ListN(webmail.Folder(op.Folder), op.Limit)
			case livefleet.OpSearch:
				_, err = se.Search(op.Query)
			case livefleet.OpRead:
				_, err = se.Read(webmail.MessageID(op.ID))
			case livefleet.OpSend:
				_, err = se.Send(op.To, op.Subject, op.Body)
			case livefleet.OpChpass:
				err = se.ChangePassword(op.Password)
			case livefleet.OpActivity:
				_, err = se.ActivityPage()
			default:
				err = fmt.Errorf("unknown op %q", op.Kind)
			}
			d := time.Since(start)
			c.res.attempted++
			if err != nil {
				c.res.failed++
				c.res.problem("in-process %s: %v", op.Kind, err)
				return out, nil
			}
			out.all = append(out.all, d)
			out.byKind[op.Kind] = append(out.byKind[op.Kind], d)
		}
	}
	return out, nil
}

// writeProfile keeps a raw CPU profile of the traced pass for
// `go tool pprof`.
func writeProfile(c *runCtx, i int, raw []byte) error {
	path := filepath.Join(c.outDir, fmt.Sprintf("profile-%s-%d.pb.gz", c.workload, i))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("bench: write profile: %w", err)
	}
	return nil
}

// seededPrefixes draws n uniform bucket prefixes below 2^bits.
func seededPrefixes(seed int64, n, bits int) []uint64 {
	src := rand.New(rand.NewSource(seed))
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(src.Int63n(1 << uint(bits)))
	}
	return out
}
