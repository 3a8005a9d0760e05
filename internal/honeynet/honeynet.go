package honeynet

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/appscript"
	"repro/internal/attacker"
	"repro/internal/corpus"
	"repro/internal/geo"
	"repro/internal/malnet"
	"repro/internal/netsim"
	"repro/internal/outlets"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/sinkhole"
	"repro/internal/snapshot"
	"repro/internal/webmail"
)

// Config parameterises an Experiment.
type Config struct {
	// Seed drives every stochastic choice; a fixed seed reproduces the
	// entire run bit-for-bit.
	Seed int64
	// Plan is the deployment blueprint; nil selects Table1Plan.
	Plan []GroupSpec
	// Start is the leak date; zero selects the paper's 2015-06-25.
	Start time.Time
	// Duration is the observation window; zero selects the paper's
	// 7 months (236 days, 2015-06-25 → 2016-02-16).
	Duration time.Duration
	// MailboxSize is the seeded message count per account; zero
	// selects 90.
	MailboxSize int
	// ScanInterval is the Apps-Script scan cadence; zero selects the
	// paper's 10 minutes.
	ScanInterval time.Duration
	// ScrapeInterval is the activity-page scraping cadence; zero
	// selects 1 hour.
	ScrapeInterval time.Duration
	// DisableCaseStudies skips the §4.7 scripted scenarios.
	DisableCaseStudies bool
	// LoginRisk forwards to the platform (paper: disabled on honey
	// accounts; the ablation enables it).
	LoginRisk webmail.LoginRiskConfig
	// Shards partitions the plan across this many parallel schedulers
	// (default 1: serial, the paper's setup). The merged dataset for a
	// fixed seed is identical at any shard count; only wall-clock time
	// changes. Values above the number of plan blocks are clamped.
	Shards int
	// ScaleFactor replicates the plan this many times (default 1),
	// simulating ScaleFactor·100 accounts for the Table 1 plan. Each
	// replica draws fresh, independent randomness.
	ScaleFactor int
	// Sites overrides the outlet catalogue credentials are leaked
	// through (nil selects outlets.DefaultSites, the paper's venues).
	// The scenario layer uses this to vary leak-exposure dynamics
	// (slower pickup cadences, different venue mixes).
	Sites []*outlets.Site
	// Populations overrides the per-channel attacker calibrations
	// (nil selects attacker.DefaultPopulations, the paper's measured
	// marginals).
	Populations *attacker.Populations
	// Locale overrides the decoy-identity locale (names + mail
	// domain) the honey personas are drawn from; nil selects the
	// seed deployment's English pool.
	Locale *corpus.Locale
	// SetupSeed, when non-zero, drives the setup phase (personas,
	// mailbox corpora, passwords) from its own stream instead of the
	// experiment root stream. Experiments sharing a SetupSeed (and the
	// other setup-relevant fields — see SetupFingerprint) produce
	// identical honey accounts while their Seed-driven attacker and
	// outlet streams diverge: the warm-started scenario matrix runs
	// the shared setup once and forks every variant from its snapshot.
	// Zero keeps the legacy layout, where setup draws from the root
	// stream and the default path stays byte-identical.
	SetupSeed int64
	// DefenderCadence enables the C3 defender loop (see defender.go):
	// every cadence, a provider-side defender range-queries the
	// shard-local C3 index fragment for each still-undetected honey
	// account's leaked credential and, on a hit, resets the password —
	// cutting every live attacker session off. Zero (the default)
	// disables the subsystem entirely: no fragments are built, no
	// wheel chain is armed, and every dataset and report is
	// byte-identical to a run without it.
	DefenderCadence time.Duration
	// C3BucketBits is the k-anonymity prefix width of the C3
	// fragments (0 selects c3.DefaultBucketBits). Narrower prefixes
	// mean bigger buckets — more privacy, more response bytes — and
	// never change detection outcomes, only query cost. Only
	// meaningful with DefenderCadence > 0.
	C3BucketBits int
	// C3Variants turns on MIGP-style variant indexing in the C3
	// fragments: deterministic password mutations are indexed
	// alongside each ingested credential. Only meaningful with
	// DefenderCadence > 0.
	C3Variants bool
	// SetupWorkers bounds the goroutines the parallel setup layout
	// fans account construction out over; zero selects one per
	// available CPU. It only matters with SetupSeed != 0 (the legacy
	// layout is inherently serial) and never changes results: every
	// account draws from its own substream and all scheduler-visible
	// ordering is per-shard, so the fleet is byte-identical at any
	// worker count — the knob trades goroutines for cold-start
	// wall-clock only.
	SetupWorkers int
}

// DefaultStart is the paper's leak date, 2015-06-25 (§3.2) — the
// Config.Start zero-value default. Exported so layers that offset the
// start (the scenario timezone axis) share the one constant.
func DefaultStart() time.Time {
	return time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)
}

func (c Config) withDefaults() Config {
	if c.Plan == nil {
		c.Plan = Table1Plan()
	}
	if c.Start.IsZero() {
		c.Start = DefaultStart()
	}
	if c.Duration <= 0 {
		c.Duration = 236 * 24 * time.Hour
	}
	if c.MailboxSize <= 0 {
		c.MailboxSize = 90
	}
	if c.ScanInterval <= 0 {
		c.ScanInterval = 10 * time.Minute
	}
	if c.ScrapeInterval <= 0 {
		c.ScrapeInterval = time.Hour
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.ScaleFactor <= 0 {
		c.ScaleFactor = 1
	}
	if c.SetupWorkers <= 0 {
		c.SetupWorkers = runtime.GOMAXPROCS(0)
	}
	if c.Sites == nil {
		c.Sites = outlets.DefaultSites()
	}
	return c
}

// Experiment owns one full deployment, sharded across parallel
// schedulers.
type Experiment struct {
	cfg  Config
	plan []GroupSpec // expanded (ScaleFactor applied)
	src  *rng.Source

	gaz *geo.Gazetteer
	bl  *netsim.Blacklist

	shards []*shard
	blocks []*block
	set    *simtime.ShardSet

	assignments []Assignment
	blockOf     map[string]*block
	leakTimes   map[string]time.Time
	handles     []string // honey email local parts (TF-IDF drop list)

	setupDone bool
	leaked    bool

	// setupPos is the setup stream's final draw position, recorded at
	// the end of Setup for the snapshot's stream section (the setup
	// stream itself is not needed again — accounts are data by then).
	setupPos uint64

	agg *analysis.Aggregates // cached merged streaming aggregates
}

// New constructs an experiment; call Setup, Leak, then Run.
func New(cfg Config) (*Experiment, error) {
	cfg = cfg.withDefaults()
	if err := ValidatePlan(cfg.Plan); err != nil {
		return nil, err
	}
	plan := expandPlan(cfg.Plan, cfg.ScaleFactor)
	if cfg.Shards > len(plan) {
		cfg.Shards = len(plan)
	}
	// Every block plus the monitor needs its own IP-range tenant;
	// beyond that, distinct attackers could silently share addresses.
	if len(plan)+1 > netsim.TenantSlots {
		return nil, fmt.Errorf("honeynet: plan expands to %d blocks; at most %d supported (reduce ScaleFactor)",
			len(plan), netsim.TenantSlots-1)
	}
	src := rng.New(cfg.Seed)
	gaz := geo.Default()
	bl := netsim.NewBlacklist()

	monEP, err := monitorEndpoint(src, gaz, len(plan))
	if err != nil {
		return nil, err
	}

	shards, set, err := newShards(cfg.Shards, cfg, monEP)
	if err != nil {
		return nil, err
	}
	e := &Experiment{
		cfg:       cfg,
		plan:      plan,
		src:       src,
		gaz:       gaz,
		bl:        bl,
		shards:    shards,
		set:       set,
		blockOf:   make(map[string]*block),
		leakTimes: make(map[string]time.Time),
	}
	for i, spec := range plan {
		sh := shards[shardOf(i, len(cfg.Plan), len(shards))]
		e.blocks = append(e.blocks, newBlock(i, len(plan), spec, sh, src, cfg, gaz, bl))
	}
	return e, nil
}

// monitorEndpoint is the monitoring infrastructure's network
// identity: one endpoint, shared by every shard's scraper, in the
// researchers' city (§4.1's self-filter drops all accesses from it).
// Its address tenant sits one past the blocks' so it collides with no
// block. It depends only on the seed and the block count.
func monitorEndpoint(src *rng.Source, gaz *geo.Gazetteer, blocks int) (netsim.Endpoint, error) {
	ep, err := netsim.NewAddressSpaceTenant(src.ForkNamed("address-space"), gaz, blocks).FromCity("London")
	if err != nil {
		return netsim.Endpoint{}, fmt.Errorf("honeynet: monitor endpoint: %w", err)
	}
	return ep, nil
}

// Accessors used by examples, benches and tests.
func (e *Experiment) Assignments() []Assignment   { return append([]Assignment(nil), e.assignments...) }
func (e *Experiment) Shards() int                 { return len(e.shards) }
func (e *Experiment) ShardSet() *simtime.ShardSet { return e.set }

// Service returns the webmail platform holding account: the platform
// of the shard that runs the account's block. It is nil for an
// address outside the plan.
func (e *Experiment) Service(account string) *webmail.Service {
	b, ok := e.blockOf[account]
	if !ok {
		return nil
	}
	return b.shard.svc
}

// Config returns the experiment's configuration with defaults
// applied — the exact config a snapshot of this experiment resumes
// under (ResumeWith takes it, or a post-fork variation of it).
func (e *Experiment) Config() Config { return e.cfg }

// Records merges the ground-truth attacker records of every block,
// ordered by first activity (cookie breaks ties deterministically).
func (e *Experiment) Records() []attacker.Record {
	var out []attacker.Record
	for _, b := range e.blocks {
		out = append(out, b.engine.Records()...)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].FirstAt.Equal(out[j].FirstAt) {
			return out[i].FirstAt.Before(out[j].FirstAt)
		}
		return out[i].Cookie < out[j].Cookie
	})
	return out
}

// Blackmailers sums the §4.7 blackmail sessions across blocks.
func (e *Experiment) Blackmailers() int {
	n := 0
	for _, b := range e.blocks {
		n += b.engine.Blackmailers()
	}
	return n
}

// ResaleWaves merges the per-account resale-wave timestamps across
// blocks (account populations are disjoint between blocks).
func (e *Experiment) ResaleWaves() map[string][]time.Time {
	out := make(map[string][]time.Time)
	for _, b := range e.blocks {
		for acct, waves := range b.engine.ResaleWaves() {
			out[acct] = append(out[acct], waves...)
		}
	}
	return out
}

// AllInquiries gathers underground-forum buyer inquiries across every
// block's outlet registry.
func (e *Experiment) AllInquiries() []outlets.Inquiry {
	var out []outlets.Inquiry
	for _, b := range e.blocks {
		out = append(out, b.reg.AllInquiries()...)
	}
	return out
}

// SinkholeCount returns the number of outbound messages the shard
// sinkholes swallowed.
func (e *Experiment) SinkholeCount() int {
	n := 0
	for _, sh := range e.shards {
		n += sh.sink.Count()
	}
	return n
}

// suspendedCount sums the accounts every shard's platform blocked.
func (e *Experiment) suspendedCount() int {
	n := 0
	for _, sh := range e.shards {
		n += sh.svc.SuspendedCount()
	}
	return n
}

// setupSeed returns the seed that drives the setup phase: SetupSeed
// when the split layout is selected, the root seed otherwise.
func (c Config) setupSeed() int64 {
	if c.SetupSeed != 0 {
		return c.SetupSeed
	}
	return c.Seed
}

// Setup creates, seeds and instruments the honey accounts (§3.2
// "Honey account setup"), and starts the monitoring pipeline. Its
// output is independent of the shard count and — in the SetupSeed
// layout — of the worker count. With Config.SetupSeed set, every
// setup draw comes from a substream of that seed, making the produced
// accounts a pure function of the setup-relevant configuration (see
// SetupFingerprint) — the property the snapshot warm-start forks rely
// on — and letting account construction fan out in parallel (see
// setupParallel). SetupSeed zero keeps the legacy serial layout,
// byte-identical to the seed deployment.
func (e *Experiment) Setup() error {
	if e.setupDone {
		return fmt.Errorf("honeynet: Setup called twice")
	}
	n := PlanAccounts(e.plan)
	locale := corpus.DefaultLocale()
	if e.cfg.Locale != nil {
		locale = *e.cfg.Locale
	}
	var err error
	if e.cfg.SetupSeed != 0 {
		err = e.setupParallel(n, locale)
	} else {
		err = e.setupLegacy(n, locale)
	}
	if err != nil {
		return err
	}
	for _, sh := range e.shards {
		sh.mon.Start(e.cfg.ScrapeInterval)
	}
	e.setupDone = true
	return nil
}

// setupLegacy is the SetupSeed==0 layout: every draw interleaves
// serially on the experiment root stream, byte-for-byte the seed
// deployment's behaviour (the calibration bands and the plain-CLI
// goldens pin it).
func (e *Experiment) setupLegacy(n int, locale corpus.Locale) error {
	setupSrc := e.src // legacy layout: setup shares the root stream
	personas := corpus.NewPersonasLocale(setupSrc.ForkNamed("personas"), n, locale)
	gen := corpus.NewGenerator(setupSrc.ForkNamed("corpus"))

	var l loader
	idx := 0
	for _, b := range e.blocks {
		b.start = idx
		for i := 0; i < b.spec.Count; i++ {
			p := personas[idx]
			idx++
			password := fmt.Sprintf("hp-%08x", setupSrc.Int63()&0xffffffff)
			if err := e.createAccount(&l, gen, b, p, password); err != nil {
				return err
			}
			e.register(b, p.Email, password, p.Handle())
		}
		b.end = idx
	}
	e.setupPos = setupSrc.Pos()
	return nil
}

// setupParallel is the SetupSeed layout: the setup root makes no
// draws itself — account i draws its persona, password and mailbox
// from its own substream setupRoot.ForkShard(i, n), so the fleet is a
// pure function of the setup-relevant config, independent of worker
// count and completion order. Stream/persona/password generation fans
// out over fixed account chunks; persona-email dedup and plan
// bookkeeping run as cheap serial sweeps; account materialization
// then fans out with one goroutine per shard — all gated by a
// Config.SetupWorkers pool.
// Each goroutine walks its own shard's blocks in plan order, so every
// scheduler-visible sequence — platform account order, script
// installs, trigger-wheel registrations, monitor tracking — is
// exactly the serial one, which is what keeps snapshots and reports
// byte-identical at any worker count (determinism contract #6).
func (e *Experiment) setupParallel(n int, locale corpus.Locale) error {
	setupRoot := rng.New(e.cfg.SetupSeed)
	// The recurring corporate-contact pool is shared by every mailbox;
	// it draws once, here, from its own named substream of the root.
	gen := corpus.NewGenerator(setupRoot.ForkNamed("corpus"))

	// Pass 1 (parallel): per-account streams, personas and passwords.
	// ForkShard only reads the root's seed, so the chunks share
	// nothing but disjoint slice ranges; seeding 4.8KB of math/rand
	// state per account is a real fraction of setup CPU, and it
	// parallelizes here instead of serializing ahead of the fan-out.
	streams := make([]*rng.Source, n)
	personas := make([]corpus.Persona, n)
	passwords := make([]string, n)
	pool := simtime.NewWorkerPool(e.cfg.SetupWorkers)
	var wg sync.WaitGroup
	const chunk = 256
	for lo := 0; lo < n; lo += chunk {
		lo, hi := lo, lo+chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.Acquire()
			defer pool.Release()
			for i := lo; i < hi; i++ {
				src := setupRoot.ForkShard(i, n)
				personas[i] = corpus.PersonaAt(src, locale)
				passwords[i] = fmt.Sprintf("hp-%08x", src.Int63()&0xffffffff)
				streams[i] = src
			}
		}()
	}
	wg.Wait()
	// Serial sweep: email collisions resolve in account-index order
	// with the same numeric-suffix convention the legacy persona pool
	// uses, so the final addresses never depend on worker scheduling.
	used := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		if used[personas[i].Email] {
			personas[i].Email = personas[i].SuffixEmail(i)
		}
		used[personas[i].Email] = true
	}

	// Serial pass 2: plan bookkeeping (handles, assignments, blockOf
	// are experiment-global), leaving the workers nothing but
	// shard-local and per-account work.
	idx := 0
	for _, b := range e.blocks {
		b.start = idx
		for i := 0; i < b.spec.Count; i++ {
			e.register(b, personas[idx].Email, passwords[idx], personas[idx].Handle())
			idx++
		}
		b.end = idx
	}

	// Parallel pass: one goroutine per shard materializes that shard's
	// accounts. Shards own their platforms, appscript runtimes and
	// monitors, so the workers share no lock.
	errs := make([]error, len(e.shards))
	for si := range e.shards {
		si := si
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.Acquire()
			defer pool.Release()
			wgen := gen.Split(nil)
			var l loader
			for _, b := range e.blocks {
				if b.shard.id != si {
					continue
				}
				for i := b.start; i < b.end; i++ {
					wgen.Reseed(streams[i])
					if err := e.createAccount(&l, wgen, b, personas[i], passwords[i]); err != nil {
						errs[si] = err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	e.setupPos = 0 // the setup root never draws in this layout
	return nil
}

// loader holds one set-up worker's reused buffers: the rendered
// mailbox and the account record it becomes.
type loader struct {
	msgs []corpus.Message
	acct snapshot.Account
}

// createAccount renders one honey account's mailbox with gen and
// materializes the account through loadAccount, the path snapshot
// resume takes too. Seeded message IDs are exactly 1..MailboxSize,
// the contract the lazy contents view (SeededContents) reads the
// corpus back through.
func (e *Experiment) createAccount(l *loader, gen *corpus.Generator, b *block, p corpus.Persona, password string) error {
	seedStart := e.cfg.Start.Add(-180 * 24 * time.Hour)
	l.msgs = gen.MailboxAppend(l.msgs[:0], p, e.cfg.MailboxSize, seedStart, e.cfg.Start)
	l.acct = snapshot.Account{
		Address:  p.Email,
		Password: password,
		Owner:    p.FullName(),
		SendFrom: sinkhole.Sender,
		NextID:   1,
		Messages: l.acct.Messages[:0],
	}
	for _, m := range l.msgs {
		webmail.AppendSeeded(&l.acct, m.From, m.To, m.Subject, m.Body, m.Date)
	}
	return e.loadAccount(b, &l.acct)
}

// loadAccount restores one account onto its block's shard platform
// with a single RestoreAccount and instruments it: the per-account
// sequence Setup and the snapshot restore path share.
func (e *Experiment) loadAccount(b *block, acct *snapshot.Account) error {
	if err := b.shard.svc.RestoreAccount(acct); err != nil {
		return fmt.Errorf("honeynet: load %s: %w", acct.Address, err)
	}
	if err := e.instrument(b, acct.Address, acct.Password); err != nil {
		return fmt.Errorf("honeynet: instrument %s: %w", acct.Address, err)
	}
	return nil
}

// instrument attaches the monitoring pipeline to one account: the
// Apps-Script scan/heartbeat triggers and the activity-page scraper.
// The scheduler-visible operation order here is what makes a resumed
// experiment re-arm into byte-identical trigger state, so Setup and
// the snapshot restore path share this exact sequence.
func (e *Experiment) instrument(b *block, email, password string) error {
	opts := appscript.Options{ScanInterval: e.cfg.ScanInterval}
	if err := b.shard.runtime.Install(email, opts); err != nil {
		return err
	}
	b.shard.mon.Track(email, password)
	return nil
}

// register records the account's plan bookkeeping (shared by Setup
// and the snapshot restore path).
func (e *Experiment) register(b *block, email, password, handle string) {
	e.handles = append(e.handles, handle)
	e.blockOf[email] = b
	e.assignments = append(e.assignments, Assignment{Account: email, Password: password, Group: b.spec})
}

// Leak publishes every account's credentials through its block's
// channel (§3.2 "Leaking account credentials") and schedules the case
// studies. Like Setup it runs serially in plan order; the scheduled
// consequences execute on each block's owning shard.
func (e *Experiment) Leak() error {
	if !e.setupDone {
		return fmt.Errorf("honeynet: Leak before Setup")
	}
	if e.leaked {
		return fmt.Errorf("honeynet: Leak called twice")
	}
	now := e.cfg.Start

	for _, b := range e.blocks {
		list := e.assignments[b.start:b.end]
		creds := make([]outlets.Credential, 0, len(list))
		for _, a := range list {
			cred := outlets.Credential{Account: a.Account, Password: a.Password}
			if b.spec.Hint != analysis.HintNone {
				cred.Hint = e.hintFor(b.spec.Hint)
			}
			creds = append(creds, cred)
			e.leakTimes[a.Account] = now
		}
		switch b.spec.Channel {
		case analysis.OutletPaste:
			e.spread(b, creds, b.reg.ByKind(outlets.KindPaste, false))
		case analysis.OutletPasteRussian:
			e.spread(b, creds, b.reg.ByKind(outlets.KindPaste, true))
		case analysis.OutletForum:
			e.spread(b, creds, b.reg.ByKind(outlets.KindForum, false))
		case analysis.OutletMalware:
			mcreds := make([]malnet.Credential, 0, len(creds))
			for _, c := range creds {
				mcreds = append(mcreds, malnet.Credential{Account: c.Account, Password: c.Password})
			}
			samples := malnet.DefaultSamples(b.src.ForkNamed("samples"), 24)
			b.sandbox.RunCampaign(samples, mcreds)
		}
	}
	if !e.cfg.DisableCaseStudies {
		e.scheduleCaseStudies()
	}
	e.armDefenders()
	e.leaked = true
	return nil
}

// spread distributes a block's credentials round-robin over its
// outlets.
func (e *Experiment) spread(b *block, creds []outlets.Credential, sites []*outlets.Outlet) {
	if len(sites) == 0 {
		return
	}
	buckets := make([][]outlets.Credential, len(sites))
	for i, c := range creds {
		buckets[i%len(sites)] = append(buckets[i%len(sites)], c)
	}
	for i, o := range sites {
		if len(buckets[i]) > 0 {
			o.Post(buckets[i], b.engine.HandlePickup)
		}
	}
}

// hintFor builds the advertised decoy-location block for a region.
func (e *Experiment) hintFor(h analysis.Hint) *outlets.LocationHint {
	switch h {
	case analysis.HintUK:
		city := rng.Pick(e.src, e.gaz.InRegion(geo.RegionUK))
		return &outlets.LocationHint{Region: "uk", Midpoint: geo.LondonMidpoint, City: city.Name}
	case analysis.HintUS:
		city := rng.Pick(e.src, e.gaz.InRegion(geo.RegionUSMidwest))
		return &outlets.LocationHint{Region: "us", Midpoint: geo.PontiacMidpoint, City: city.Name}
	default:
		return nil
	}
}

// scheduleCaseStudies wires the §4.7 scenarios onto concrete accounts:
// blackmail on three paste-leaked accounts, quota notices on two
// accounts (by reinstalling their scripts with a quota), and one
// carding-forum registration. Target selection walks the global
// assignment list in plan order — stable under any shard layout — and
// each scripted action runs on the engine of the account's own block.
func (e *Experiment) scheduleCaseStudies() {
	var pasteAccounts, forumAccounts []Assignment
	for _, a := range e.assignments {
		switch a.Group.Channel {
		case analysis.OutletPaste:
			pasteAccounts = append(pasteAccounts, a)
		case analysis.OutletForum:
			forumAccounts = append(forumAccounts, a)
		}
	}
	now := e.cfg.Start
	if len(pasteAccounts) >= 3 {
		// Group the blackmail targets per owning block, preserving
		// order, so each campaign runs on its accounts' own engine.
		targetsByBlock := make(map[*block][]string)
		var blockOrder []*block
		for _, a := range pasteAccounts[:3] {
			b := e.blockOf[a.Account]
			b.engine.RegisterCredential(a.Account, a.Password)
			if _, seen := targetsByBlock[b]; !seen {
				blockOrder = append(blockOrder, b)
			}
			targetsByBlock[b] = append(targetsByBlock[b], a.Account)
		}
		for _, b := range blockOrder {
			b.engine.RunBlackmailCampaign(targetsByBlock[b], now.Add(20*24*time.Hour))
		}
	}
	if len(forumAccounts) >= 2 {
		for i, a := range forumAccounts[:2] {
			// Reinstall with a quota so the "too much computer time"
			// notice lands in the inbox, then have an attacker read it.
			b := e.blockOf[a.Account]
			b.shard.runtime.Install(a.Account, appscript.Options{
				ScanInterval: e.cfg.ScanInterval,
				QuotaScans:   500 + 100*i,
			})
			b.engine.RegisterCredential(a.Account, a.Password)
			b.engine.RunQuotaReader(a.Account, now.Add(time.Duration(40+10*i)*24*time.Hour))
		}
	}
	if len(forumAccounts) >= 3 {
		a := forumAccounts[2]
		b := e.blockOf[a.Account]
		b.engine.RegisterCredential(a.Account, a.Password)
		b.engine.RunCardingRegistration(a.Account, now.Add(55*24*time.Hour))
	}
}

// Run advances every shard to the end of the observation window,
// executing shards concurrently, one worker per shard.
func (e *Experiment) Run() error {
	return e.RunPooled(simtime.NewWorkerPool(len(e.shards)))
}

// RunPooled is Run drawing its shard workers from a shared
// simtime.WorkerPool — the matrix engine's entry point, letting N
// concurrent scenarios jointly respect one worker budget. The merged
// results are identical to Run's for the same seed.
func (e *Experiment) RunPooled(pool *simtime.WorkerPool) error {
	if !e.leaked {
		return fmt.Errorf("honeynet: Run before Leak")
	}
	e.set.RunUntil(e.cfg.Start.Add(e.cfg.Duration), pool)
	return nil
}

// RunAll is Setup + Leak + Run.
func (e *Experiment) RunAll() error {
	if err := e.Setup(); err != nil {
		return err
	}
	if err := e.Leak(); err != nil {
		return err
	}
	return e.Run()
}

// Dataset exports the analysis-ready dataset, rebuilt from the
// observations every shard's streaming classifier retains (the
// self-filtered accesses, actions and password changes) and annotated
// with the plan facts (outlet, hint, leak time). The merge orders
// records by stable keys (account, cookie, time) rather than arrival,
// so the result is identical whatever the shard count or goroutine
// interleaving. Each call builds a fresh copy; the engine keeps none.
func (e *Experiment) Dataset() *analysis.Dataset {
	ds := &analysis.Dataset{
		Blacklisted:       make(map[string]bool),
		SuspendedAccounts: e.suspendedCount(),
	}
	for _, sh := range e.shards {
		accesses, actions, changes := sh.sc.Observations()
		for _, a := range accesses {
			f := e.facts(a.Account)
			a.Outlet, a.Hint, a.LeakTime = f.Outlet, f.Hint, f.LeakTime
			if e.listed(a.IP) {
				ds.Blacklisted[a.IP] = true
			}
			ds.Accesses = append(ds.Accesses, a)
		}
		ds.Actions = append(ds.Actions, actions...)
		ds.PasswordChanges = append(ds.PasswordChanges, changes...)
	}
	sort.Slice(ds.Accesses, func(i, j int) bool {
		if ds.Accesses[i].Account != ds.Accesses[j].Account {
			return ds.Accesses[i].Account < ds.Accesses[j].Account
		}
		return ds.Accesses[i].Cookie < ds.Accesses[j].Cookie
	})
	sort.Slice(ds.Actions, func(i, j int) bool {
		ai, aj := ds.Actions[i], ds.Actions[j]
		if !ai.Time.Equal(aj.Time) {
			return ai.Time.Before(aj.Time)
		}
		if ai.Account != aj.Account {
			return ai.Account < aj.Account
		}
		if ai.Message != aj.Message {
			return ai.Message < aj.Message
		}
		return ai.Kind < aj.Kind
	})
	sort.Slice(ds.PasswordChanges, func(i, j int) bool {
		pi, pj := ds.PasswordChanges[i], ds.PasswordChanges[j]
		if !pi.Time.Equal(pj.Time) {
			return pi.Time.Before(pj.Time)
		}
		return pi.Account < pj.Account
	})
	return ds
}

// DropWords returns the TF-IDF preprocessing drop list: honey handles
// plus monitor marker tokens (§4.6's preprocessing).
func (e *Experiment) DropWords() []string {
	out := append([]string(nil), e.handles...)
	out = append(out, "honeymail", "sinkhole", "capture")
	return out
}
