package honeynet

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/appscript"
	"repro/internal/attacker"
	"repro/internal/c3"
	"repro/internal/geo"
	"repro/internal/malnet"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/outlets"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/sinkhole"
	"repro/internal/webmail"
)

// The sharded engine splits one experiment into two granularities:
//
//   - A *shard* is a unit of parallelism: one simulation clock, one
//     scheduler, one webmail platform holding exactly its blocks'
//     accounts, one monitoring pipeline (Apps-Script runtime and
//     scraper, both feeding the shard's classifier) and one sinkhole.
//     Shards share no mutable simulation state, so the ShardSet can
//     drive them from concurrent worker goroutines.
//
//   - A *block* is a unit of determinism: one expanded-plan entry
//     (one Table 1 row, possibly replicated by ScaleFactor). Every
//     stochastic stream that shapes a block's fate — its outlets, its
//     attacker population, its malware campaign, its address space,
//     its cookie namespace — derives from rng.ForkShard(block index,
//     block count) on the experiment seed. Block behaviour is
//     therefore a pure function of (seed, plan, scale) and does NOT
//     depend on which shard executes the block, which is what makes
//     shards=1 and shards=8 produce the same merged dataset.
//
// Blocks are striped across shards by plan row and replica (see
// shardOf); a shard runs all events of its blocks on its single
// scheduler.

// shard owns the parallel-execution fabric for a subset of blocks.
type shard struct {
	id    int
	clock *simtime.Clock
	sched *simtime.Scheduler
	// wheel batches every same-cadence periodic trigger on this shard
	// (all Apps-Script scans, all heartbeats, the monitor scrape) onto
	// one scheduler event per tick, so the heap pays O(1) operations
	// per tick instead of O(accounts).
	wheel *simtime.TriggerWheel
	sink  *sinkhole.Store
	// svc is the shard's webmail platform: its blocks' accounts, on
	// the shard's clock, sending into the shard's sinkhole.
	svc     *webmail.Service
	runtime *appscript.Runtime
	mon     *monitor.Monitor
	// sc classifies this shard's accesses as the simulation runs.
	sc *analysis.StreamClassifier
	// c3 is this shard's C3 index fragment, fed at pickup/exfil time
	// by the shard's own blocks; def is the detection loop over it.
	// Both nil unless Config.DefenderCadence > 0 (see defender.go).
	c3  *c3.Store
	def *defender
}

// block owns the deterministic per-plan-entry machinery.
type block struct {
	idx   int
	spec  GroupSpec
	shard *shard

	src     *rng.Source
	space   *netsim.AddressSpace
	jar     *netsim.CookieJar
	reg     *outlets.Registry
	engine  *attacker.Engine
	sandbox *malnet.Sandbox

	// assignment index range [start, end) into Experiment.assignments.
	start, end int
}

// newShards builds n isolated shard fabrics, each with its own
// platform.
func newShards(n int, cfg Config, monEP netsim.Endpoint) ([]*shard, *simtime.ShardSet, error) {
	shards := make([]*shard, n)
	set := simtime.NewShardSet()
	for i := 0; i < n; i++ {
		clock := simtime.NewClock(cfg.Start)
		sched := simtime.NewScheduler(clock)
		sh := &shard{
			id:    i,
			clock: clock,
			sched: sched,
			wheel: simtime.NewTriggerWheel(sched),
			sink:  &sinkhole.Store{},
			sc:    analysis.NewStreamClassifier(),
		}
		sh.svc = webmail.NewService(webmail.Config{
			Clock:     clock,
			Outbound:  sh.sink,
			LoginRisk: cfg.LoginRisk,
		})
		if cfg.DefenderCadence > 0 {
			frag, err := c3.New(c3.Config{BucketBits: cfg.C3BucketBits, Variants: cfg.C3Variants})
			if err != nil {
				return nil, nil, fmt.Errorf("honeynet: shard %d c3 fragment: %w", i, err)
			}
			sh.c3 = frag
		}
		sh.attachMonitoring(monEP, &streamSink{sc: sh.sc})
		shards[i] = sh
		set.Add(sh.sched)
	}
	return shards, set, nil
}

// observer is what a shard's monitoring pipeline feeds: the script
// notifications and the scraper's observations.
type observer interface {
	appscript.Notifier
	monitor.Sink
}

// attachMonitoring builds the shard's monitoring pipeline — the
// Apps-Script runtime and the activity-page scraper, both on the
// shard's platform and wheel — feeding obs.
func (sh *shard) attachMonitoring(monEP netsim.Endpoint, obs observer) {
	sh.runtime = appscript.NewRuntime(sh.svc, sh.wheel, obs)
	sh.mon = monitor.New(monitor.Config{
		Service:  sh.svc,
		Wheel:    sh.wheel,
		Sink:     obs,
		Endpoint: monEP,
		Cookies:  netsim.NewCookieJarPrefixed(fmt.Sprintf("mon%d", sh.id)),
	})
}

// newBlock builds the deterministic machinery for expanded-plan entry
// idx of total, running on the given shard. All randomness descends
// from root.ForkShard(idx, total), so the block's behaviour is
// independent of the shard layout. The outlet catalogue and attacker
// populations come from cfg (scenario overrides); defaults reproduce
// the paper's deployment.
func newBlock(idx, total int, spec GroupSpec, sh *shard, root *rng.Source, cfg Config,
	gaz *geo.Gazetteer, bl *netsim.Blacklist) *block {
	src := root.ForkShard(idx, total)
	b := &block{
		idx:   idx,
		spec:  spec,
		shard: sh,
		src:   src,
		// Tenant idx: this block's IP ranges are disjoint from every
		// other block's and from the monitor's (tenant == total), so
		// distinct attackers never share an address.
		space: netsim.NewAddressSpaceTenant(src.ForkNamed("address-space"), gaz, idx),
		jar:   netsim.NewCookieJarPrefixed(fmt.Sprintf("b%d", idx)),
		reg:   outlets.NewRegistry(cfg.Sites, sh.sched, src.ForkNamed("outlets")),
	}
	if sh.c3 != nil {
		// Pickup-time C3 ingestion: the fragment learns a credential at
		// the instant a criminal picks it up — the earliest moment a
		// breach-monitoring service could know it. The sink is a pure
		// observer (no randomness, shard-local writes), so wiring it
		// moves no simulated outcome.
		frag := sh.c3
		b.reg.SetSink(func(c outlets.Credential, site string, at time.Time) {
			frag.Add(c.Account, c.Password, site, at)
		})
	}
	b.engine = attacker.New(attacker.Config{
		Service:     sh.svc,
		Scheduler:   sh.sched,
		Space:       b.space,
		Blacklist:   bl,
		Gazetteer:   gaz,
		Src:         src.ForkNamed("attackers"),
		Cookies:     b.jar,
		Populations: cfg.Populations,
	})
	b.sandbox = malnet.NewSandbox(sh.sched, func(ex malnet.Exfiltration) {
		if sh.c3 != nil {
			// Malware-channel ingestion: the credential crosses the C&C
			// wire at exfiltration — that is when a sinkhole-operating
			// monitoring service would capture it.
			sh.c3.Add(ex.Credential.Account, ex.Credential.Password, "malware", ex.At)
		}
		b.engine.HandleExfil(ex)
	})
	return b
}

// shardOf places expanded block i on one of n shards. The expanded
// plan lists rows replica by replica, so block i is row i%rows of
// replica i/rows, and that row goes to shard (row + replica) mod n.
// Plain i mod n would put every replica of a row on one shard whenever
// the row count shares a factor with n — with Table 1's 8 rows on 2
// shards, one shard would run every malware and Russian-paste block.
// Replica 0 keeps i mod n, so an unscaled plan is placed as before.
func shardOf(i, rows, n int) int {
	return (i%rows + i/rows) % n
}

// expandPlan replicates a validated plan scale times. Replicas keep
// their group IDs (so Table 1 totals scale linearly) but get labelled
// per replica for reporting.
func expandPlan(plan []GroupSpec, scale int) []GroupSpec {
	if scale <= 1 {
		return append([]GroupSpec(nil), plan...)
	}
	out := make([]GroupSpec, 0, len(plan)*scale)
	for r := 0; r < scale; r++ {
		for _, g := range plan {
			if r > 0 {
				g.Label = fmt.Sprintf("%s [replica %d]", g.Label, r+1)
			}
			out = append(out, g)
		}
	}
	return out
}
