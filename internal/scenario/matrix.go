package scenario

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/honeynet"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/snapshot"
)

// Options are the execution parameters of a scenario run. They shape
// cost, never results: shards and scale keep the engine's
// shard-count-invariance contract, the worker budget only decides
// how much of the matrix runs at once, and warm-starting only decides
// whether shared setup phases are simulated once or per scenario.
type Options struct {
	// BaseSeed seeds scenarios that don't pin their own. Zero is a
	// valid seed, not a sentinel — whatever the caller passes is what
	// SeedFor derives from, so reported base seeds always reproduce.
	BaseSeed int64
	// Shards is the per-scenario shard count (default 1).
	Shards int
	// Scale replicates each scenario's plan (default 1).
	Scale int
	// Workers is the matrix-wide worker budget shared by every
	// concurrently running scenario (default NumCPU).
	Workers int
	// DaysOverride truncates every scenario's observation window (CI
	// smoke and tests; 0 keeps each spec's own window).
	DaysOverride int
	// ColdStart disables warm-starting: every scenario then simulates
	// its own setup phase from scratch, as the pre-snapshot engine
	// did. Results are byte-identical either way
	// (TestMatrixWarmStartMatchesCold); the flag exists to measure
	// what warm-starting saves and as an escape hatch.
	ColdStart bool
	// SetupSeed pins the setup stream directly instead of deriving it
	// from BaseSeed (see SetupSeedFor). Zero derives. Use it to
	// reproduce one scenario standalone from its artifact metadata:
	// Run(spec, artifact.Seed, Options{SetupSeed: artifact.SetupSeed,
	// Shards: ..., Scale: ...}) matches the matrix bytes without
	// knowing the matrix's base seed.
	SetupSeed int64
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	return o
}

// Result is one scenario's outcome: the merged aggregates every
// report and artifact derives from, plus the run context needed to
// render a full per-scenario report (group counts for Table 1, the
// seeded contents and drop words for Table 2, the §4.7 counters).
type Result struct {
	Spec   Spec
	Seed   int64
	Shards int
	Scale  int
	// SetupSeed is the derived seed that drove the setup phase (see
	// SetupSeedFor); scenarios sharing it grew identical honey
	// accounts and can fork from one snapshot.
	SetupSeed int64
	// WarmStarted reports whether this scenario forked from a shared
	// post-setup snapshot instead of simulating its own setup. It is
	// execution metadata — never part of the artifact, which must be
	// identical warm or cold.
	WarmStarted bool
	// Err is set when the scenario failed to build or run; all other
	// result fields are then zero.
	Err error

	Agg          *analysis.Aggregates
	GroupCounts  map[int]int
	Contents     analysis.ContentsView
	DropWords    []string
	Blackmailers int
	Inquiries    int
	Events       uint64
	Elapsed      time.Duration
	// Defender holds the C3 detection-race outcomes (nil unless the
	// spec set defender_cadence); C3Indexed is the fleet-wide count of
	// credentials the C3 fragments ingested during the run.
	Defender  []honeynet.DefenderOutcome
	C3Indexed int
}

// SeedFor derives the stable seed of scenario index of total from a
// matrix base seed. The derivation is rng.ForkShard's, so it is a
// pure function of (base, index, total): re-running one scenario
// alone with the seed the matrix reports reproduces its aggregates
// bit for bit (TestMatrixMatchesSolo).
func SeedFor(base int64, index, total int) int64 {
	return rng.New(base).ForkShard(index, total).Seed()
}

// SetupSeedFor derives the seed that drives a config's setup phase: a
// pure function of the base seed and the config's setup-relevant axes
// (account count, leak date, mailbox size, locale — the fields
// honeynet.SetupFingerprint covers), independent of the scenario's
// own experiment seed. Scenarios whose setups agree therefore agree
// on SetupSeedFor too, grow bit-identical honey accounts, and the
// warm-started matrix simulates that shared setup exactly once.
func SetupSeedFor(base int64, cfg honeynet.Config) int64 {
	probe := cfg
	probe.SetupSeed = 1 // pin the seed axis: key only the structural setup axes
	key := honeynet.SetupFingerprint(probe)
	derived := rng.New(base).ForkNamed(fmt.Sprintf("setup-prefix-%016x", key)).Seed()
	if derived == 0 {
		derived = 1 // 0 selects the legacy layout; never derive it
	}
	return derived
}

// compileConfig builds one scenario's runnable config: the spec
// compiled at the effective seed, the days override applied, and the
// setup phase rebased onto its derived SetupSeedFor stream.
func compileConfig(spec Spec, seed int64, opts Options) (honeynet.Config, error) {
	cfg, err := spec.Config(seed, opts.Shards, opts.Scale)
	if err != nil {
		return honeynet.Config{}, err
	}
	if opts.DaysOverride > 0 {
		cfg.Duration = time.Duration(opts.DaysOverride) * 24 * time.Hour
	}
	cfg.SetupSeed = opts.SetupSeed
	if cfg.SetupSeed == 0 {
		cfg.SetupSeed = SetupSeedFor(opts.BaseSeed, cfg)
	}
	return cfg, nil
}

// Run executes one scenario alone with the given seed, drawing
// workers from a private pool of opts.Workers. The setup phase draws
// from the stream Options selects — SetupSeed directly, or the
// BaseSeed derivation (SetupSeedFor) — so to reproduce a matrix
// member bit-for-bit, pass either the matrix's BaseSeed or the
// artifact's recorded setup_seed.
func Run(spec Spec, seed int64, opts Options) *Result {
	opts = opts.withDefaults()
	return runOne(spec, seed, opts, simtime.NewWorkerPool(opts.Workers))
}

// RunMatrix executes every scenario concurrently on one shared worker
// budget and returns results in spec order. Scenario names must be
// unique (they key report columns and artifact files). Individual
// scenario failures land in Result.Err; the rest of the matrix still
// completes.
//
// Scenarios whose setup-relevant axes agree (same derived setup seed,
// account count, leak date, mailbox size and locale — whatever their
// plans, outlet catalogues or calibrations) are warm-started: the
// shared pre-leak phase is simulated once, snapshotted through the
// full binary codec, and every member forks from the decoded snapshot
// with only its own post-fork divergence applied. Results are
// byte-identical to cold runs; Options.ColdStart forces the old
// per-scenario path.
func RunMatrix(specs []Spec, opts Options) ([]*Result, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("scenario: empty matrix")
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("scenario: duplicate scenario %q in matrix", s.Name)
		}
		seen[s.Name] = true
	}
	opts = opts.withDefaults()
	pool := simtime.NewWorkerPool(opts.Workers)
	results := make([]*Result, len(specs))

	// Compile every scenario up front so warm-start groups form over
	// the real configs. A compile failure fails only its scenario.
	type compiled struct {
		seed int64
		cfg  honeynet.Config
	}
	slots := make([]compiled, len(specs))
	groups := map[uint64][]int{} // setup fingerprint -> scenario indices
	var order []uint64
	for i, spec := range specs {
		seed := SeedFor(opts.BaseSeed, i, len(specs))
		if spec.Seed != nil {
			seed = *spec.Seed
		}
		cfg, err := compileConfig(spec, seed, opts)
		if err != nil {
			results[i] = &Result{Spec: spec, Seed: seed, Shards: opts.Shards, Scale: opts.Scale,
				Err: fmt.Errorf("scenario %s: %w", spec.Name, err)}
			continue
		}
		slots[i] = compiled{seed: seed, cfg: cfg}
		fp := honeynet.SetupFingerprint(cfg)
		if _, ok := groups[fp]; !ok {
			order = append(order, fp)
		}
		groups[fp] = append(groups[fp], i)
	}

	var wg sync.WaitGroup
	for _, fp := range order {
		members := groups[fp]
		wg.Add(1)
		go func(members []int) {
			defer wg.Done()
			var shared *snapshot.State
			if !opts.ColdStart && len(members) > 1 {
				shared = buildSharedSetup(slots[members[0]].cfg, pool)
			}
			var mwg sync.WaitGroup
			for _, i := range members {
				i := i
				mwg.Add(1)
				go func() {
					defer mwg.Done()
					results[i] = runCompiled(specs[i], slots[i].seed, opts, slots[i].cfg, pool, shared)
				}()
			}
			mwg.Wait()
		}(members)
	}
	wg.Wait()
	return results, nil
}

// buildSharedSetup simulates one group's shared setup phase and
// freezes it, round-tripping through the binary codec so the warm
// path exercises exactly what a cross-process resume would. Any
// failure falls back to nil — every member then cold-starts, which
// either succeeds or reports the real error per scenario.
func buildSharedSetup(cfg honeynet.Config, pool *simtime.WorkerPool) *snapshot.State {
	pool.Acquire()
	defer pool.Release()
	proto, err := honeynet.New(cfg)
	if err != nil {
		return nil
	}
	if err := proto.Setup(); err != nil {
		return nil
	}
	st, err := proto.Snapshot()
	if err != nil {
		return nil
	}
	decoded, err := snapshot.Decode(st.Encode())
	if err != nil {
		return nil
	}
	return decoded
}

// runOne compiles and runs one scenario cold (the solo path).
func runOne(spec Spec, seed int64, opts Options, pool *simtime.WorkerPool) *Result {
	// A spec-pinned seed overrides the caller's (Spec.Config applies
	// the same rule); Result.Seed must report the seed that actually
	// drove the run, or artifacts would carry unreproducible metadata.
	if spec.Seed != nil {
		seed = *spec.Seed
	}
	cfg, err := compileConfig(spec, seed, opts)
	if err != nil {
		return &Result{Spec: spec, Seed: seed, Shards: opts.Shards, Scale: opts.Scale,
			Err: fmt.Errorf("scenario %s: %w", spec.Name, err)}
	}
	return runCompiled(spec, seed, opts, cfg, pool, nil)
}

// runCompiled builds, runs and aggregates one scenario, either cold
// (shared == nil: simulate Setup) or forked from a shared post-setup
// snapshot. Setup/restore and Leak are serial phases and hold one
// pool slot; the shard run draws slots per shard via RunPooled.
// Everything observable is a pure function of (spec, seed, scale) —
// the pool, the shard count and the warm/cold path only shape
// wall-clock time.
func runCompiled(spec Spec, seed int64, opts Options, cfg honeynet.Config, pool *simtime.WorkerPool, shared *snapshot.State) *Result {
	res := &Result{Spec: spec, Seed: seed, Shards: opts.Shards, Scale: opts.Scale,
		SetupSeed: cfg.SetupSeed, WarmStarted: shared != nil}
	fail := func(err error) *Result {
		res.Err = fmt.Errorf("scenario %s: %w", spec.Name, err)
		return res
	}
	start := time.Now()
	var exp *honeynet.Experiment
	var err error
	if shared != nil {
		pool.Acquire()
		exp, err = honeynet.ResumeWith(shared, cfg)
		if err == nil {
			err = exp.Leak()
		}
		pool.Release()
		if err != nil {
			return fail(err)
		}
	} else {
		exp, err = honeynet.New(cfg)
		if err != nil {
			return fail(err)
		}
		pool.Acquire()
		err = exp.Setup()
		if err == nil {
			err = exp.Leak()
		}
		pool.Release()
		if err != nil {
			return fail(err)
		}
	}
	if err := exp.RunPooled(pool); err != nil {
		return fail(err)
	}

	if err := res.collect(exp); err != nil {
		return fail(err)
	}
	res.Elapsed = time.Since(start)
	return res
}

// FromExperiment collects a finished experiment into a Result, the
// form every report section renders from. cmd/honeynet's plain run
// uses it; the scenario runner fills its results the same way.
func FromExperiment(exp *honeynet.Experiment) (*Result, error) {
	cfg := exp.Config()
	res := &Result{Seed: cfg.Seed, Shards: cfg.Shards, Scale: cfg.ScaleFactor, SetupSeed: cfg.SetupSeed}
	if err := res.collect(exp); err != nil {
		return nil, err
	}
	return res, nil
}

// collect fills the outcome fields of r from a finished experiment:
// the merged aggregates plus the run context the full report needs.
func (r *Result) collect(exp *honeynet.Experiment) error {
	agg, err := exp.Aggregates()
	if err != nil {
		return err
	}
	r.Agg = agg
	r.GroupCounts = map[int]int{}
	for _, a := range exp.Assignments() {
		r.GroupCounts[a.Group.ID]++
	}
	r.Contents = exp.SeededContents()
	r.DropWords = exp.DropWords()
	r.Blackmailers = exp.Blackmailers()
	r.Inquiries = len(exp.AllInquiries())
	r.Defender = exp.DefenderOutcomes()
	r.C3Indexed = exp.C3Stats().Credentials
	r.Events = exp.ShardSet().Fired()
	return nil
}
