// Command honeynet runs the full honey-account experiment and prints
// the paper's tables and figures, or runs declarative scenario
// variants (alone or as a concurrent matrix) and compares them.
//
// Usage:
//
//	honeynet [-seed N] [-days N] [-experiment id] [-resamples N]
//	         [-shards N] [-scale K] [-setup-seed N]
//	         [-checkpoint file] [-resume file]
//	         [-cpuprofile file] [-memprofile file]
//	honeynet -scenario <name|file> [-out dir] [...]
//	honeynet -matrix <name|file>[,<name|file>...] [-out dir] [-workers N]
//	         [-warm-start=bool] [...]
//
// Experiment ids: overview, table1, fig1, fig2, fig3, fig4, fig5a,
// fig5b, cvm, table2, sysconfig, cases, sophistication, all — plus
// defender when -defender-cadence arms the C3 detection loop, which
// races provider-side leak detection (time-to-detection) against the
// attackers' time-to-exploit.
//
// -shards partitions the run across N parallel schedulers (0 selects
// one per CPU); the output for a fixed seed is identical at any shard
// count. A shard count larger than the deployment's account count is
// rejected up front with a non-zero exit. -cpuprofile/-memprofile
// write pprof profiles of the run (the heap profile is taken post-GC
// at exit, so it shows live fleet state, not transient garbage).
// -scale replicates the Table 1 plan K×, simulating 100·K honey
// accounts. Every shard classifies its accesses on the fly, and the
// report renders from the merged per-shard aggregates through the
// same section table the -scenario report uses.
//
// -checkpoint freezes the experiment at its post-setup boundary
// (accounts created, mailboxes seeded, monitoring armed, nothing run)
// into a deterministic snapshot file, then continues the run.
// -resume loads such a snapshot instead of re-simulating setup; the
// post-fork flags (-seed, -days, -shards, -defender-cadence,
// -c3-bucket-bits, -c3-variants) may be re-specified to diverge from
// the checkpointed run — -setup-seed N gives setup its own seed
// stream so different -seed values can fork the same accounts. A resumed run renders
// byte-identically to an uninterrupted one (TestSnapshotInvariance).
//
// -scenario runs one declarative experiment variant (an embedded
// preset name such as "baseline" or "paste-only", or a JSON spec
// file) and prints its full report. -matrix runs several variants
// concurrently on one worker budget (-workers, default NumCPU) and
// prints the comparative report: one column per scenario, deltas
// against the first column. Scenarios whose setup phases agree are
// warm-started from one shared snapshot (-warm-start=false simulates
// every setup; identical output either way). -out writes one
// canonical JSON aggregate artifact per scenario for cross-run
// diffing; the directory is created (and failures reported, non-zero)
// before any simulation starts. With -scenario/-matrix the -days
// flag only overrides the specs' windows when set explicitly.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/honeynet"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/snapshot"
)

func main() {
	var (
		seed         = flag.Int64("seed", 42, "deterministic experiment seed")
		days         = flag.Int("days", 236, "observation window in days (paper: 236)")
		experiment   = flag.String("experiment", "all", "which artifact to print (overview, table1, fig1..fig5b, cvm, table2, sysconfig, cases, sophistication, all)")
		resamples    = flag.Int("resamples", 2000, "Cramér–von Mises permutation resamples")
		shards       = flag.Int("shards", 1, "parallel shard schedulers (0 = one per CPU; output is shard-count invariant)")
		scale        = flag.Int("scale", 1, "replicate the deployment plan K× (simulates 100·K accounts for Table 1)")
		scen         = flag.String("scenario", "", "run one scenario (preset name or JSON spec file) and print its full report")
		matrix       = flag.String("matrix", "", "comma-separated scenarios to run concurrently and compare (first is the baseline column)")
		outDir       = flag.String("out", "", "directory for per-scenario JSON aggregate artifacts")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "matrix-wide worker budget shared by all scenarios (default: one per CPU)")
		setupWorkers = flag.Int("setup-workers", runtime.GOMAXPROCS(0), "goroutines for the parallel account-setup layout selected by -setup-seed; never changes results (default: one per CPU)")
		setupSeed    = flag.Int64("setup-seed", 0, "give the setup phase its own seed stream so -resume can fork the same accounts under different -seed values (0 = setup shares the experiment seed)")
		checkpoint   = flag.String("checkpoint", "", "write a post-setup snapshot to this file, then continue the run")
		resumeFile   = flag.String("resume", "", "resume from a post-setup snapshot file instead of re-simulating setup")
		warmStart    = flag.Bool("warm-start", true, "fork matrix scenarios that share a setup phase from one snapshot (false = simulate every setup; identical output)")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file when the run completes")
		defCadence   = flag.Duration("defender-cadence", 0, "arm the C3 defender loop at this check cadence (0 = no defender, the paper's deployment); adds the 'defender' report section")
		c3Bits       = flag.Int("c3-bucket-bits", 0, "k-anonymity prefix width of the C3 index fragments (0 = engine default; needs -defender-cadence)")
		c3Variants   = flag.Bool("c3-variants", false, "index MIGP-style password variants in the C3 fragments (needs -defender-cadence)")
	)
	flag.Parse()

	if *shards == 0 {
		*shards = runtime.NumCPU()
	}
	if *scale < 1 {
		*scale = 1
	}
	if err := validateWorkers("workers", *workers); err != nil {
		log.Fatal(err)
	}
	if err := validateWorkers("setup-workers", *setupWorkers); err != nil {
		log.Fatal(err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer writeMemProfile(*memprofile)
	}

	if *scen != "" || *matrix != "" {
		if *checkpoint != "" || *resumeFile != "" {
			log.Fatal("-checkpoint/-resume apply to the plain experiment; scenario matrices checkpoint their shared setups automatically (see -warm-start)")
		}
		daysExplicit := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "days" {
				daysExplicit = true
			}
		})
		opts := scenario.Options{
			BaseSeed:  *seed,
			Shards:    *shards,
			Scale:     *scale,
			Workers:   *workers,
			ColdStart: !*warmStart,
		}
		if daysExplicit {
			opts.DaysOverride = *days
		}
		if *scen != "" && *matrix != "" {
			log.Fatal("use either -scenario or -matrix, not both")
		}
		// Surface a broken -out before minutes of simulation, not after.
		prepareOutDir(*outDir)
		if *scen != "" {
			runScenario(*scen, opts, *resamples, *outDir)
		} else {
			runMatrix(strings.Split(*matrix, ","), opts, *outDir)
		}
		return
	}

	var exp *honeynet.Experiment
	start := time.Now()
	if *resumeFile != "" {
		if *checkpoint != "" {
			// A resumed run is already past the post-setup boundary;
			// silently skipping the write would strand the user
			// without the file they asked for.
			log.Fatal("-checkpoint cannot be combined with -resume: the snapshot freezes the post-setup boundary, which a resumed run has already crossed (re-run with -checkpoint alone to produce one)")
		}
		st, err := snapshot.ReadFile(*resumeFile)
		if err != nil {
			log.Fatal(err)
		}
		if st.Config.CustomSites || st.Config.CustomPopulations || st.Config.CustomLocale {
			log.Fatal("honeynet: snapshot depends on a scenario-provided outlet catalogue, calibration or locale; re-run the scenario matrix instead (its warm starts resume such snapshots)")
		}
		cfg, err := honeynet.ConfigFromSnapshot(st)
		if err != nil {
			log.Fatal(err)
		}
		// Explicitly-set flags override the snapshot's post-fork
		// fields; setup-relevant fields stay fingerprint-pinned
		// (ResumeWith rejects mismatches).
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "seed":
				cfg.Seed = *seed
			case "setup-seed":
				cfg.SetupSeed = *setupSeed
			case "setup-workers":
				cfg.SetupWorkers = *setupWorkers
			case "days":
				cfg.Duration = time.Duration(*days) * 24 * time.Hour
			case "shards":
				cfg.Shards = *shards
			case "scale":
				cfg.ScaleFactor = *scale
			case "defender-cadence":
				cfg.DefenderCadence = *defCadence
			case "c3-bucket-bits":
				cfg.C3BucketBits = *c3Bits
			case "c3-variants":
				cfg.C3Variants = *c3Variants
			}
		})
		if err := validateShards(cfg.Shards, len(st.Accounts)); err != nil {
			log.Fatal(err)
		}
		exp, err = honeynet.ResumeWith(st, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "resumed %d accounts from %s (seed %d, %d shard(s))...\n",
			len(st.Accounts), *resumeFile, cfg.Seed, exp.Shards())
	} else {
		cfg := honeynet.Config{
			Seed:            *seed,
			SetupSeed:       *setupSeed,
			SetupWorkers:    *setupWorkers,
			Duration:        time.Duration(*days) * 24 * time.Hour,
			Shards:          *shards,
			ScaleFactor:     *scale,
			DefenderCadence: *defCadence,
			C3BucketBits:    *c3Bits,
			C3Variants:      *c3Variants,
		}
		if err := validateShards(*shards, honeynet.PlannedAccounts(cfg)); err != nil {
			log.Fatal(err)
		}
		var err error
		exp, err = honeynet.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "running %d-day deployment (seed %d, %d shard(s), scale %d×)...\n",
			*days, *seed, exp.Shards(), *scale)
		if err := exp.Setup(); err != nil {
			log.Fatal(err)
		}
		if *checkpoint != "" {
			// Streamed account by account: checkpoint memory stays
			// O(block) whatever -scale made the fleet.
			if err := exp.WriteSnapshotFile(*checkpoint); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "post-setup checkpoint written to %s (%d accounts)\n",
				*checkpoint, len(exp.Assignments()))
		}
	}
	if err := exp.Leak(); err != nil {
		log.Fatal(err)
	}
	if err := exp.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "done in %v (%d events)\n\n",
		time.Since(start).Round(time.Millisecond), exp.ShardSet().Fired())

	// Render from the experiment's effective config: a resumed run's
	// seed comes from the snapshot (determinism guarantee #5 — the
	// resumed report must byte-match the uninterrupted run), not from
	// this process's flag defaults.
	res, err := scenario.FromExperiment(exp)
	if err != nil {
		log.Fatal(err)
	}
	want := strings.ToLower(*experiment)
	if want == "all" {
		fmt.Print(scenario.RenderSections(res, *resamples))
		return
	}
	sections := scenario.Sections(res)
	ids := make([]string, 0, len(sections))
	for _, s := range sections {
		if s.ID == want {
			fmt.Println(s.Render(res, *resamples))
			return
		}
		ids = append(ids, s.ID)
	}
	log.Fatalf("unknown experiment %q (have: %s, all)", want, strings.Join(ids, ", "))
}

// runScenario executes one declarative variant and prints its full
// report.
func runScenario(arg string, opts scenario.Options, resamples int, outDir string) {
	spec, err := scenario.Resolve(arg)
	if err != nil {
		log.Fatal(err)
	}
	seed := opts.BaseSeed
	if spec.Seed != nil {
		seed = *spec.Seed
	}
	fmt.Fprintf(os.Stderr, "running scenario %s (seed %d, %d shard(s), scale %d×)...\n",
		spec.Name, seed, opts.Shards, opts.Scale)
	start := time.Now()
	res := scenario.Run(spec, seed, opts)
	if res.Err != nil {
		log.Fatal(res.Err)
	}
	fmt.Fprintf(os.Stderr, "done in %v (%d events)\n\n", time.Since(start).Round(time.Millisecond), res.Events)
	out, err := scenario.RenderFullReport(res, resamples)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out)
	writeArtifacts(outDir, []*scenario.Result{res})
}

// runMatrix executes several variants concurrently on one shared
// worker budget and prints the comparative report.
func runMatrix(args []string, opts scenario.Options, outDir string) {
	var specs []scenario.Spec
	for _, arg := range args {
		arg = strings.TrimSpace(arg)
		if arg == "" {
			continue
		}
		spec, err := scenario.Resolve(arg)
		if err != nil {
			log.Fatal(err)
		}
		specs = append(specs, spec)
	}
	fmt.Fprintf(os.Stderr, "running %d-scenario matrix (base seed %d, %d shard(s)/scenario, scale %d×)...\n",
		len(specs), opts.BaseSeed, opts.Shards, opts.Scale)
	start := time.Now()
	results, err := scenario.RunMatrix(specs, opts)
	if err != nil {
		log.Fatal(err)
	}
	failed := false
	var cols []report.ScenarioColumn
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "scenario %s FAILED: %v\n", r.Spec.Name, r.Err)
			failed = true
			continue
		}
		fmt.Fprintf(os.Stderr, "scenario %-20s seed %-20d %8d events  %v\n",
			r.Spec.Name, r.Seed, r.Events, r.Elapsed.Round(time.Millisecond))
		cols = append(cols, report.ScenarioColumn{Name: r.Spec.Name, Agg: r.Agg})
	}
	fmt.Fprintf(os.Stderr, "matrix done in %v\n\n", time.Since(start).Round(time.Millisecond))
	// The first scenario is the delta reference: if it failed, every
	// delta would silently rebase on whichever scenario survived, so
	// refuse to render the comparison at all.
	if results[0].Err != nil {
		fmt.Fprintln(os.Stderr, "baseline scenario failed; not rendering the comparative report")
	} else {
		fmt.Print(report.Comparative(cols))
	}
	writeArtifacts(outDir, results)
	if failed {
		os.Exit(1)
	}
}

// errBadWorkers rejects worker budgets below one: zero workers would
// deadlock the pool and a negative count is always a typo, so both
// fail fast instead of being silently clamped.
var errBadWorkers = errors.New("worker counts must be at least 1 (omit the flag for the default, one per CPU)")

// validateWorkers applies errBadWorkers to one worker-count flag,
// naming the flag and value in the error.
func validateWorkers(flagName string, n int) error {
	if n < 1 {
		return fmt.Errorf("-%s %d: %w", flagName, n, errBadWorkers)
	}
	return nil
}

// validateShards rejects shard counts the deployment cannot fill: a
// shard with zero accounts would silently run an empty scheduler, so
// the mistake fails fast with the numbers spelled out instead.
func validateShards(shards, accounts int) error {
	if shards > accounts {
		return fmt.Errorf("-shards %d exceeds the deployment's %d account(s); every shard needs at least one account (lower -shards or raise -scale)", shards, accounts)
	}
	return nil
}

// writeMemProfile snapshots the live heap (post-GC) to path.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("-memprofile: %v", err)
	}
	runtime.GC() // materialize only live objects in the profile
	if err := pprof.WriteHeapProfile(f); err != nil {
		log.Fatalf("-memprofile: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("-memprofile: %v", err)
	}
}

// prepareOutDir creates the artifact directory up front so a bad
// -out path fails the invocation immediately instead of after the
// whole matrix has simulated. (The old behaviour surfaced the error
// only at write time; a mid-matrix failure could leave partial
// artifacts behind a zero exit for the scenarios already written.)
func prepareOutDir(dir string) {
	if dir == "" {
		return
	}
	// MkdirAll covers every failure mode, including any path
	// component (the leaf too) existing as a non-directory.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatalf("-out %s: %v", dir, err)
	}
}

// writeArtifacts writes one JSON artifact per successful result and
// exits non-zero unless every successful scenario produced one — a
// partial artifact directory must never look like a clean run.
func writeArtifacts(outDir string, results []*scenario.Result) {
	if outDir == "" {
		return
	}
	paths, err := scenario.WriteArtifacts(outDir, results)
	if err != nil {
		log.Fatal(err)
	}
	want := 0
	for _, r := range results {
		if r != nil && r.Err == nil {
			want++
		}
	}
	if len(paths) != want {
		log.Fatalf("-out %s: wrote %d artifact(s) for %d successful scenario(s)", outDir, len(paths), want)
	}
	fmt.Fprintf(os.Stderr, "wrote %d artifact(s) to %s\n", len(paths), outDir)
}
