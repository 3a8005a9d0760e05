package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/report"
)

// matrixTestOpts keeps the matrix tests quick: 45-day windows, two
// shards per scenario, a four-worker budget.
func matrixTestOpts() Options {
	return Options{BaseSeed: 7, Shards: 2, Scale: 1, Workers: 4, DaysOverride: 45}
}

func loadPresets(t *testing.T, names ...string) []Spec {
	t.Helper()
	specs := make([]Spec, 0, len(names))
	for _, n := range names {
		s, err := Preset(n)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	return specs
}

// TestMatrixMatchesSolo is the matrix engine's acceptance gate: five
// named presets run concurrently in one invocation, and each
// scenario's aggregates are bit-identical (via the canonical artifact
// encoding) to running that scenario alone with the same seed.
func TestMatrixMatchesSolo(t *testing.T) {
	specs := loadPresets(t,
		"baseline", "paste-only", "forum-only", "malware-heavy", "cautious-criminals")
	opts := matrixTestOpts()
	results, err := RunMatrix(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("matrix returned %d results for %d specs", len(results), len(specs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("scenario %s failed: %v", specs[i].Name, r.Err)
		}
		if r.Seed != SeedFor(opts.BaseSeed, i, len(specs)) {
			t.Fatalf("scenario %s ran with seed %d, want the stable derivation %d",
				specs[i].Name, r.Seed, SeedFor(opts.BaseSeed, i, len(specs)))
		}
		solo := Run(specs[i], r.Seed, opts)
		if solo.Err != nil {
			t.Fatalf("solo %s failed: %v", specs[i].Name, solo.Err)
		}
		matrixArt, err := BuildArtifact(r)
		if err != nil {
			t.Fatal(err)
		}
		soloArt, err := BuildArtifact(solo)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := matrixArt.Encode()
		if err != nil {
			t.Fatal(err)
		}
		sb, err := soloArt.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mb, sb) {
			t.Fatalf("scenario %s: matrix aggregates differ from solo run at the same seed\nmatrix: %s\nsolo:   %s",
				specs[i].Name, mb, sb)
		}
		if r.Agg.Classes.Total == 0 {
			t.Fatalf("scenario %s observed no accesses (implausible)", specs[i].Name)
		}
	}

	// The comparative report renders one column per scenario with
	// baseline-delta annotations.
	var cols []report.ScenarioColumn
	for _, r := range results {
		cols = append(cols, report.ScenarioColumn{Name: r.Spec.Name, Agg: r.Agg})
	}
	out := report.Comparative(cols)
	for _, want := range []string{`baseline "baseline"`, "paste-only", "malware-heavy", "(+", "pp)"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("comparative report missing %q:\n%s", want, out)
		}
	}
}

// TestAllPresetsRun executes every embedded preset end to end — not
// just the subset the other tests exercise — so an axis only one
// preset touches (locale threading, site overrides, timezone offsets)
// cannot break at runtime while its spec still parses green.
func TestAllPresetsRun(t *testing.T) {
	specs := loadPresets(t, PresetNames()...)
	results, err := RunMatrix(specs, matrixTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("preset %s failed at runtime: %v", r.Spec.Name, r.Err)
			continue
		}
		if r.Agg == nil || r.Events == 0 {
			t.Errorf("preset %s ran no simulation (events=%d)", r.Spec.Name, r.Events)
		}
		if _, err := BuildArtifact(r); err != nil {
			t.Errorf("preset %s: %v", r.Spec.Name, err)
		}
	}
}

// TestMatrixWarmStartMatchesCold is the warm-start engine's
// acceptance gate: a matrix that forks its scenarios from one shared
// post-setup snapshot produces byte-identical artifacts to a matrix
// that cold-simulates every setup, at shard counts 1 and 4 — and the
// warm run really did share (every member of the five-preset
// common-setup group reports WarmStarted), while setups that differ
// (foreign locale, shifted leak date) stayed cold.
func TestMatrixWarmStartMatchesCold(t *testing.T) {
	specs := loadPresets(t,
		"baseline", "paste-only", "forum-only", "malware-heavy", "cautious-criminals",
		"foreign-locale", "long-tail-90d")
	sharedSetup := map[string]bool{
		"baseline": true, "paste-only": true, "forum-only": true,
		"malware-heavy": true, "cautious-criminals": true,
	}
	for _, shards := range []int{1, 4} {
		opts := matrixTestOpts()
		opts.Shards = shards

		warm, err := RunMatrix(specs, opts)
		if err != nil {
			t.Fatal(err)
		}
		coldOpts := opts
		coldOpts.ColdStart = true
		cold, err := RunMatrix(specs, coldOpts)
		if err != nil {
			t.Fatal(err)
		}

		for i := range specs {
			name := specs[i].Name
			if warm[i].Err != nil || cold[i].Err != nil {
				t.Fatalf("shards=%d %s: warm err %v, cold err %v", shards, name, warm[i].Err, cold[i].Err)
			}
			if warm[i].WarmStarted != sharedSetup[name] {
				t.Errorf("shards=%d %s: WarmStarted=%v, want %v",
					shards, name, warm[i].WarmStarted, sharedSetup[name])
			}
			if cold[i].WarmStarted {
				t.Errorf("shards=%d %s: cold-start matrix reported a warm-started scenario", shards, name)
			}
			wa, err := BuildArtifact(warm[i])
			if err != nil {
				t.Fatal(err)
			}
			ca, err := BuildArtifact(cold[i])
			if err != nil {
				t.Fatal(err)
			}
			wb, err := wa.Encode()
			if err != nil {
				t.Fatal(err)
			}
			cb, err := ca.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wb, cb) {
				t.Fatalf("shards=%d %s: warm-started artifact differs from cold\nwarm: %s\ncold: %s",
					shards, name, wb, cb)
			}
		}
	}
}

// TestMatrixWarmStartCadenceVariants: cadences are post-fork axes,
// so scenarios differing only in scan/scrape cadence share one warm
// setup — and must still match their cold runs byte for byte.
// Regression test: the resume drift verifier once rejected such
// forks because their re-armed trigger chains differ from the
// prototype's.
func TestMatrixWarmStartCadenceVariants(t *testing.T) {
	specs := []Spec{
		{Name: "base-cadence"},
		{Name: "slow-scan", ScanEvery: "6h", ScrapeEvery: "12h"},
	}
	opts := matrixTestOpts()
	warm, err := RunMatrix(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	coldOpts := opts
	coldOpts.ColdStart = true
	cold, err := RunMatrix(specs, coldOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if warm[i].Err != nil {
			t.Fatalf("%s failed warm: %v", specs[i].Name, warm[i].Err)
		}
		if !warm[i].WarmStarted {
			t.Fatalf("%s did not warm-start despite sharing a setup", specs[i].Name)
		}
		wa, _ := BuildArtifact(warm[i])
		ca, _ := BuildArtifact(cold[i])
		wb, _ := wa.Encode()
		cb, _ := ca.Encode()
		if !bytes.Equal(wb, cb) {
			t.Fatalf("%s: warm artifact differs from cold", specs[i].Name)
		}
	}
}

// TestSetupSeedSharing: the derived setup seed is a pure function of
// the setup-relevant axes — plan variants share it, locale/date
// variants do not, and the matrix reports it so artifacts reproduce.
func TestSetupSeedSharing(t *testing.T) {
	specs := loadPresets(t, "baseline", "paste-only", "foreign-locale")
	results, err := RunMatrix(specs, matrixTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.SetupSeed == 0 {
			t.Fatalf("%s: scenario ran in the legacy stream layout (SetupSeed 0)", r.Spec.Name)
		}
	}
	if results[0].SetupSeed != results[1].SetupSeed {
		t.Errorf("baseline and paste-only setups should share a derived seed (%d vs %d)",
			results[0].SetupSeed, results[1].SetupSeed)
	}
	if results[0].SetupSeed == results[2].SetupSeed {
		t.Error("foreign-locale setup must not share the baseline's derived seed")
	}

	// Artifact metadata reproduces standalone: seed + setup_seed alone
	// (no base seed) rebuild the matrix bytes.
	opts := matrixTestOpts()
	opts.BaseSeed = 0
	opts.SetupSeed = results[0].SetupSeed
	solo := Run(specs[0], results[0].Seed, opts)
	if solo.Err != nil {
		t.Fatal(solo.Err)
	}
	ma, _ := BuildArtifact(results[0])
	sa, _ := BuildArtifact(solo)
	mb, _ := ma.Encode()
	sb, _ := sa.Encode()
	if !bytes.Equal(mb, sb) {
		t.Fatal("Options.SetupSeed did not reproduce the matrix artifact standalone")
	}
}

// TestMatrixWorkerBudgetInvariance: the shared worker budget shapes
// only wall-clock concurrency, never results.
func TestMatrixWorkerBudgetInvariance(t *testing.T) {
	specs := loadPresets(t, "baseline", "spam-wave")
	narrow := matrixTestOpts()
	narrow.Workers = 1
	wide := matrixTestOpts()
	wide.Workers = 8
	a, err := RunMatrix(specs, narrow)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMatrix(specs, wide)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if a[i].Err != nil || b[i].Err != nil {
			t.Fatalf("run failed: %v / %v", a[i].Err, b[i].Err)
		}
		aa, _ := BuildArtifact(a[i])
		ba, _ := BuildArtifact(b[i])
		ab, _ := aa.Encode()
		bb, _ := ba.Encode()
		if !bytes.Equal(ab, bb) {
			t.Fatalf("scenario %s: results changed with the worker budget", specs[i].Name)
		}
	}
}

// TestRunMatrixRejectsBadInput: empty matrices and duplicate names
// fail before any work starts.
func TestRunMatrixRejectsBadInput(t *testing.T) {
	if _, err := RunMatrix(nil, Options{}); err == nil {
		t.Fatal("empty matrix accepted")
	}
	dup := loadPresets(t, "baseline", "baseline")
	if _, err := RunMatrix(dup, Options{}); err == nil {
		t.Fatal("duplicate scenario names accepted")
	}
	bad := []Spec{{Name: "Bad Name"}}
	if _, err := RunMatrix(bad, Options{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// TestWriteArtifacts: one JSON file per scenario lands in the output
// directory, re-readable and stable.
func TestWriteArtifacts(t *testing.T) {
	specs := loadPresets(t, "baseline")
	opts := matrixTestOpts()
	opts.DaysOverride = 20
	results, err := RunMatrix(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths, err := WriteArtifacts(dir, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || filepath.Base(paths[0]) != "baseline.json" {
		t.Fatalf("unexpected artifact paths %v", paths)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	art, err := BuildArtifact(results[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("on-disk artifact differs from canonical encoding")
	}
}
