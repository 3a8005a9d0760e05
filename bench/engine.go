package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/honeynet"
	"repro/internal/scenario"
)

// Engine workloads. A rep of fleet-idle is one deployment timed from
// New to Aggregates; a rep of matrix-active is one whole RunMatrix.
// Both run on two shards and two workers, sized for a 2-vCPU host.
const (
	engineShards  = 2
	engineWorkers = 2
	// defaultSeed is the seed whose outputs are pinned by the digests
	// committed in testdata/digests.json.
	defaultSeed = 42
)

// matrixPresets are the scenarios of matrix-active: every leak channel
// and the spam-heavy calibration, so attacker sessions dominate.
var matrixPresets = []string{"paste-only", "spam-wave", "forum-only", "malware-heavy"}

//go:embed testdata/digests.json
var committedDigests []byte

// fleetConfig is the fleet-idle deployment: the Table 1 plan ×10 (1,000
// accounts) over the paper's 236 days. Past the first weeks nearly
// every 10-minute scan and hourly scrape finds an idle account.
func fleetConfig(c *runCtx) honeynet.Config {
	scale, days := 10, 236
	if c.tiny {
		scale, days = 1, 12
	}
	return honeynet.Config{
		Seed:         c.seed,
		SetupSeed:    deriveSeed(c.seed, "fleet-setup"),
		Shards:       engineShards,
		SetupWorkers: engineWorkers,
		ScaleFactor:  scale,
		Duration:     time.Duration(days) * 24 * time.Hour,
	}
}

// matrixOptions is the matrix-active run: 30-day windows keep most
// attacker sessions and cut the idle scanning.
func matrixOptions(c *runCtx) scenario.Options {
	scale, days := 10, 30
	if c.tiny {
		scale, days = 1, 5
	}
	return scenario.Options{
		BaseSeed: c.seed, Shards: engineShards, Scale: scale,
		Workers: engineWorkers, DaysOverride: days,
	}
}

// repOutcome is what every engine rep reports: its wall time and the
// set-up part of it, the digest of its outputs and the exact counts
// that went into it.
type repOutcome struct {
	wall, setup time.Duration
	digest      string
	counts      map[string]float64
	// keep holds the finished deployment so its heap can be measured.
	keep any
}

// digestOf hashes canonical output bytes together with exact counts.
func digestOf(parts [][]byte, counts map[string]float64) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	names := make([]string, 0, len(counts))
	for k := range counts {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(h, "%s=%v\n", k, counts[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigest compares a run's digest with the one committed for the
// default seed. Other seeds, and the tiny inputs of the tests, are
// checked only for agreement between reps.
func checkDigest(c *runCtx, digest string) {
	c.res.digest = digest
	if c.tiny || c.seed != defaultSeed {
		return
	}
	var want map[string]string
	if err := json.Unmarshal(committedDigests, &want); err != nil {
		c.res.problem("testdata/digests.json: %v", err)
		return
	}
	switch w, ok := want[c.workload]; {
	case !ok:
		c.res.problem("no digest committed for seed %d; this run's is %s", defaultSeed, digest)
	case w != digest:
		c.res.problem("outputs differ from the digest committed for seed %d: got %s, want %s", defaultSeed, digest, w)
	}
}

// profiler collects the CPU samples of the traced reps; a nil
// profiler runs the measured work unprofiled.
type profiler struct {
	samples []cpuSample
	raw     [][]byte
}

func (p *profiler) run(f func() error) error {
	if p == nil {
		return f()
	}
	raw, samples, err := profileCPU(f)
	if err != nil {
		return err
	}
	p.samples = append(p.samples, samples...)
	p.raw = append(p.raw, raw)
	return nil
}

// engineReps runs one untimed warm-up rep and then timed reps until the
// measuring budget is spent, with a GC before every rep. The traced
// pass instead alternates unprofiled and profiled reps, so the trace
// overhead compares reps run side by side. Every rep must reproduce
// the warm-up's digest.
func engineReps(c *runCtx, rep func(parent int64, prof *profiler) (repOutcome, error)) (timed []repOutcome, err error) {
	const minReps, tracedPairs = 3, 3
	parent := c.tr.open("reps", 0)
	defer c.tr.close(parent)
	var warm repOutcome
	one := func(prof *profiler) (repOutcome, error) {
		runtime.GC()
		o, err := rep(parent, prof)
		if err != nil {
			return o, err
		}
		c.res.attempted++
		if warm.digest != "" && o.digest != warm.digest {
			c.res.failed++
			c.res.problem("rep digest %s differs from the warm-up's %s", o.digest, warm.digest)
		}
		return o, nil
	}
	if warm, err = one(nil); err != nil {
		return nil, err
	}
	c.res.counts = warm.counts
	checkDigest(c, warm.digest)
	warm.keep = nil
	if !c.traced {
		start := time.Now()
		for len(timed) < minReps || time.Since(start) < c.seconds {
			if len(timed) > 0 {
				timed[len(timed)-1].keep = nil // only the last deployment stays reachable
			}
			o, err := one(nil)
			if err != nil {
				return nil, err
			}
			timed = append(timed, o)
		}
		return timed, nil
	}

	prof := &profiler{}
	var profiled []repOutcome
	for len(profiled) < tracedPairs {
		o, err := one(nil)
		if err != nil {
			return nil, err
		}
		o.keep = nil
		timed = append(timed, o)
		if o, err = one(prof); err != nil {
			return nil, err
		}
		o.keep = nil
		profiled = append(profiled, o)
	}
	for i, raw := range prof.raw {
		if err := writeProfile(c, i+1, raw); err != nil {
			return nil, err
		}
	}
	attribute(prof.samples).report(c.res)
	c.res.set("trace.overhead", medianDuration(walls(profiled)).Seconds()/medianDuration(walls(timed)).Seconds(), len(profiled))
	return timed, nil
}

func walls(reps []repOutcome) []time.Duration {
	out := make([]time.Duration, len(reps))
	for i, r := range reps {
		out[i] = r.wall
	}
	return out
}

// reportEngine sets the end-to-end metrics shared by both engine
// workloads. work is the simulated account-days of one rep.
func reportEngine(c *runCtx, timed []repOutcome, work float64) {
	var total time.Duration
	setups := make([]time.Duration, len(timed))
	for i, r := range timed {
		total += r.wall
		setups[i] = r.setup
	}
	c.res.set("p50_ms", ms(medianDuration(walls(timed))), len(timed))
	c.res.set("throughput_per_s", work*float64(len(timed))/total.Seconds(), len(timed))
	c.res.set("setup_s", medianDuration(setups).Seconds(), len(setups))
	c.res.set("live_heap_mib", liveHeapMiB(), 1)
	runtime.KeepAlive(timed[len(timed)-1].keep)
}

// allocDelta is the allocation count and bytes between two MemStats.
func allocDelta(a, b *runtime.MemStats) (count, bytes float64) {
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// ---- fleet-idle ----

type fleetRep struct {
	repOutcome
	phases     map[string]time.Duration
	shardFired []float64
	// Allocation deltas, measured in profiled reps only.
	setupAllocs, runAllocs, runBytes float64
}

// runFleetRep runs one deployment from New to Aggregates — the measured
// work, profiled when prof is set — and then derives its outcome.
func runFleetRep(c *runCtx, cfg honeynet.Config, parent int64, prof *profiler) (*fleetRep, error) {
	rep := &fleetRep{phases: map[string]time.Duration{}}
	var exp *honeynet.Experiment
	var agg *analysis.Aggregates
	var m0, m1, m2 runtime.MemStats
	allocs := prof != nil
	var id int64
	phase := func(name string, f func() error) error {
		sp := c.tr.open("honeynet."+name, id)
		err := f()
		rep.phases[name] = c.tr.close(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	// The rep's span sits inside the profiled call: stopping the
	// profiler waits for its writer and is no part of the rep.
	err := prof.run(func() error {
		id = c.tr.open("rep", parent)
		defer func() { rep.wall = c.tr.close(id) }()
		if err := phase("new", func() (err error) { exp, err = honeynet.New(cfg); return err }); err != nil {
			return err
		}
		if allocs {
			runtime.ReadMemStats(&m0)
		}
		if err := phase("setup", exp.Setup); err != nil {
			return err
		}
		if allocs {
			runtime.ReadMemStats(&m1)
		}
		if err := phase("leak", exp.Leak); err != nil {
			return err
		}
		if err := phase("run", exp.Run); err != nil {
			return err
		}
		if allocs {
			runtime.ReadMemStats(&m2)
		}
		return phase("aggregates", func() (err error) { agg, err = exp.Aggregates(); return err })
	})
	if err != nil {
		return nil, err
	}
	if allocs {
		rep.setupAllocs, _ = allocDelta(&m0, &m1)
		rep.runAllocs, rep.runBytes = allocDelta(&m1, &m2)
	}

	art, err := scenario.BuildArtifact(&scenario.Result{
		Spec: scenario.Spec{Name: c.workload}, Seed: cfg.Seed, SetupSeed: cfg.SetupSeed,
		Shards: cfg.Shards, Scale: cfg.ScaleFactor, Agg: agg,
		Blackmailers: exp.Blackmailers(), Inquiries: len(exp.AllInquiries()),
	})
	if err != nil {
		return nil, err
	}
	data, err := art.Encode()
	if err != nil {
		return nil, err
	}
	rep.counts = map[string]float64{
		"simtime.events":    float64(exp.ShardSet().Fired()),
		"attacker.sessions": float64(len(exp.Records())),
		"analysis.accesses": float64(agg.Classes.Total),
		"sinkhole.mails":    float64(exp.SinkholeCount()),
		"webmail.suspended": float64(agg.SuspendedAccounts),
	}
	rep.digest = digestOf([][]byte{data}, rep.counts)
	rep.setup = rep.phases["new"] + rep.phases["setup"]
	ss := exp.ShardSet()
	for i := 0; i < ss.Len(); i++ {
		rep.shardFired = append(rep.shardFired, float64(ss.Scheduler(i).Fired()))
	}
	rep.keep = exp
	return rep, nil
}

func runFleetIdle(c *runCtx) error {
	cfg := fleetConfig(c)
	accounts := float64(honeynet.PlanAccounts(honeynet.Table1Plan()) * cfg.ScaleFactor)
	work := accounts * cfg.Duration.Hours() / 24

	var last fleetRep
	timed, err := engineReps(c, func(parent int64, prof *profiler) (repOutcome, error) {
		r, err := runFleetRep(c, cfg, parent, prof)
		if err != nil {
			return repOutcome{}, err
		}
		last = *r
		last.keep = nil
		return r.repOutcome, nil
	})
	if err != nil {
		return err
	}
	if !c.traced {
		reportEngine(c, timed, work)
		return nil
	}

	// Per-layer values of the last profiled rep.
	for _, p := range []string{"new", "setup", "leak", "run", "aggregates"} {
		c.res.set("honeynet."+p+"_s", last.phases[p].Seconds(), 1)
	}
	events := last.counts["simtime.events"]
	var maxShard float64
	for _, f := range last.shardFired {
		if f > maxShard {
			maxShard = f
		}
	}
	shards := len(last.shardFired)
	c.res.set("simtime.events", events, 1)
	c.res.set("simtime.shard_balance", maxShard/(events/float64(shards)), shards)
	c.res.set("simtime.ns_per_event", float64(last.phases["run"].Nanoseconds())/events, 1)
	for _, k := range []string{"attacker.sessions", "analysis.accesses", "sinkhole.mails", "webmail.suspended"} {
		c.res.set(k, last.counts[k], 1)
	}
	c.res.set("setup.allocs", last.setupAllocs, 1)
	c.res.set("run.allocs", last.runAllocs, 1)
	c.res.set("run.alloc_mib", last.runBytes/(1<<20), 1)
	return nil
}

// ---- matrix-active ----

func matrixSpecs() ([]scenario.Spec, error) {
	specs := make([]scenario.Spec, 0, len(matrixPresets))
	for _, name := range matrixPresets {
		s, err := scenario.Preset(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// runMatrixRep runs the whole matrix — the measured work, profiled
// when prof is set — and then derives its outcome. Its set-up is the
// part of RunMatrix before the scenarios fork: every scenario's Elapsed
// starts after the shared set-up it forks from, so the rep's wall time
// less the longest Elapsed is the set-up RunMatrix ran. That holds only
// while the four scenarios form one warm-started group, which the rep
// checks.
func runMatrixRep(c *runCtx, specs []scenario.Spec, opts scenario.Options, parent int64, prof *profiler) (repOutcome, float64, float64, error) {
	var results []*scenario.Result
	var m0, m1 runtime.MemStats
	var wall time.Duration
	err := prof.run(func() (err error) {
		id := c.tr.open("rep", parent)
		defer func() { wall = c.tr.close(id) }()
		if prof != nil {
			runtime.ReadMemStats(&m0)
		}
		results, err = scenario.RunMatrix(specs, opts)
		if prof != nil {
			runtime.ReadMemStats(&m1)
		}
		return err
	})
	if err != nil {
		return repOutcome{}, 0, 0, err
	}
	counts := map[string]float64{}
	var parts [][]byte
	var longest time.Duration
	for _, r := range results {
		if r.Err != nil {
			return repOutcome{}, 0, 0, r.Err
		}
		art, err := scenario.BuildArtifact(r)
		if err != nil {
			return repOutcome{}, 0, 0, err
		}
		data, err := art.Encode()
		if err != nil {
			return repOutcome{}, 0, 0, err
		}
		parts = append(parts, data)
		counts["simtime.events"] += float64(r.Events)
		counts["analysis.accesses"] += float64(r.Agg.Classes.Total)
		counts["webmail.suspended"] += float64(r.Agg.SuspendedAccounts)
		if r.WarmStarted {
			counts["matrix.warm_started"]++
		}
		if !r.WarmStarted || r.SetupSeed != results[0].SetupSeed {
			c.res.problem("scenario %s did not fork from the shared set-up (warm=%v, setup seed %d, first %d)",
				r.Spec.Name, r.WarmStarted, r.SetupSeed, results[0].SetupSeed)
		}
		longest = max(longest, r.Elapsed)
	}
	allocs, bytes := allocDelta(&m0, &m1)
	return repOutcome{wall: wall, setup: wall - longest, digest: digestOf(parts, counts), counts: counts, keep: results}, allocs, bytes, nil
}

func runMatrixActive(c *runCtx) error {
	specs, err := matrixSpecs()
	if err != nil {
		return err
	}
	opts := matrixOptions(c)
	accounts := float64(honeynet.PlanAccounts(honeynet.Table1Plan()) * opts.Scale)
	work := accounts * float64(opts.DaysOverride) * float64(len(specs))

	var runAllocs, runBytes float64
	var last repOutcome
	timed, err := engineReps(c, func(parent int64, prof *profiler) (repOutcome, error) {
		o, a, b, err := runMatrixRep(c, specs, opts, parent, prof)
		runAllocs, runBytes, last = a, b, o
		last.keep = nil
		return o, err
	})
	if err != nil {
		return err
	}
	if !c.traced {
		reportEngine(c, timed, work)
		return nil
	}

	events := last.counts["simtime.events"]
	c.res.set("simtime.events", events, len(specs))
	c.res.set("simtime.ns_per_event", float64(last.wall.Nanoseconds())/events, 1)
	for _, k := range []string{"analysis.accesses", "webmail.suspended", "matrix.warm_started"} {
		c.res.set(k, last.counts[k], len(specs))
	}
	c.res.set("run.allocs", runAllocs, 1)
	c.res.set("run.alloc_mib", runBytes/(1<<20), 1)
	return nil
}
