package honeynet

import (
	"bytes"
	"testing"

	"repro/internal/analysis"
)

// parallelSetupConfig selects the parallel setup layout at the given
// worker bound.
func parallelSetupConfig(seed int64, shards, workers int) Config {
	cfg := fastConfig(seed)
	cfg.Shards = shards
	cfg.SetupSeed = 777
	cfg.SetupWorkers = workers
	return cfg
}

// setupSnapshot builds an experiment, runs Setup only, and returns
// its encoded post-setup snapshot.
func setupSnapshot(t *testing.T, cfg Config) []byte {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Setup(); err != nil {
		t.Fatal(err)
	}
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return st.Encode()
}

// TestParallelSetupInvariance is determinism contract #6: with the
// parallel setup layout, the worker count never changes results. The
// post-setup snapshot — every mailbox byte, stream position and
// scheduler descriptor — must be identical at 1 and 4 setup workers,
// and the full run's merged dataset must match too, at shard counts
// 1 and 4.
func TestParallelSetupInvariance(t *testing.T) {
	for _, shards := range []int{1, 4} {
		serialSnap := setupSnapshot(t, parallelSetupConfig(55, shards, 1))
		parallelSnap := setupSnapshot(t, parallelSetupConfig(55, shards, 4))
		if !bytes.Equal(serialSnap, parallelSnap) {
			t.Fatalf("shards=%d: post-setup snapshot differs between 1 and 4 setup workers", shards)
		}

		var datasets []*analysis.Dataset
		for _, workers := range []int{1, 4} {
			cfg := parallelSetupConfig(55, shards, workers)
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.RunAll(); err != nil {
				t.Fatal(err)
			}
			datasets = append(datasets, e.Dataset())
		}
		datasetsIdentical(t, "setup-workers 1 vs 4", datasets[0], datasets[1])
	}
}

// TestSetupFingerprintDistinguishesLayouts: the fingerprint keys the
// stream-derivation layout, so a legacy-layout snapshot can never be
// mistaken for a parallel-layout one (or vice versa), whatever the
// seeds involved.
func TestSetupFingerprintDistinguishesLayouts(t *testing.T) {
	legacy := fastConfig(3)
	parallel := fastConfig(3)
	parallel.SetupSeed = 7
	if SetupFingerprint(legacy) == SetupFingerprint(parallel) {
		t.Fatal("legacy and parallel layouts share a setup fingerprint")
	}
	if got := legacy.withDefaults().setupLayout(); got != SetupLayoutLegacy {
		t.Fatalf("legacy layout = %d", got)
	}
	if got := parallel.withDefaults().setupLayout(); got != SetupLayoutParallel {
		t.Fatalf("parallel layout = %d", got)
	}
}

// TestSnapshotRecordsSetupLayout: the layout an experiment ran under
// is stored in its snapshot config, one constant per layout.
func TestSnapshotRecordsSetupLayout(t *testing.T) {
	for _, tc := range []struct {
		name      string
		setupSeed int64
		want      int
	}{
		{"legacy", 0, SetupLayoutLegacy},
		{"parallel", 777, SetupLayoutParallel},
	} {
		cfg := fastConfig(4)
		cfg.SetupSeed = tc.setupSeed
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Setup(); err != nil {
			t.Fatal(err)
		}
		st, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if st.Config.SetupLayout != tc.want {
			t.Fatalf("%s: snapshot layout = %d, want %d", tc.name, st.Config.SetupLayout, tc.want)
		}
	}
}

// TestSeededContentsViewAllocFree: the lazy contents view returns
// strings aliasing the webmail message store — a Message lookup must
// not copy any mailbox text.
func TestSeededContentsViewAllocFree(t *testing.T) {
	cfg := parallelSetupConfig(6, 1, 2)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Setup(); err != nil {
		t.Fatal(err)
	}
	contents := e.SeededContents()
	if contents.Accounts() == 0 {
		t.Fatal("no accounts in view")
	}
	var account string
	contents.Each(func(a string, _ int64, _, _ string) {
		if account == "" {
			account = a
		}
	})
	if _, _, ok := contents.Message(account, 1); !ok {
		t.Fatalf("seeded message 1 missing for %s", account)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := contents.Message(account, 1); !ok {
			t.Fatal("message vanished")
		}
	})
	if allocs != 0 {
		t.Fatalf("contents view allocates %.1f objects per lookup, want 0", allocs)
	}
	// Out-of-range ids (attacker drafts, quota notices) report absent.
	if _, _, ok := contents.Message(account, int64(cfg.MailboxSize)+1); ok {
		t.Fatal("view leaked a post-setup message id")
	}
}

// TestSetupAllocationBudget pins what set-up allocates per account in
// both layouts. Each mailbox renders into the generator's text arena
// and loads with one RestoreAccount, so New+Setup of the Table 1
// fleet measures 46 (legacy) and 50 (parallel) allocations per
// account; seeding each message on its own cost 342 and 345.
func TestSetupAllocationBudget(t *testing.T) {
	const budget = 75 // allocations per account
	accounts := float64(PlanAccounts(Table1Plan()))
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"legacy", Config{Seed: 42, Shards: 2}},
		{"parallel", Config{Seed: 42, SetupSeed: 7, Shards: 2, SetupWorkers: 2}},
	} {
		allocs := testing.AllocsPerRun(3, func() {
			e, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Setup(); err != nil {
				t.Fatal(err)
			}
		})
		if per := allocs / accounts; per > budget {
			t.Errorf("%s: New+Setup allocates %.1f times per account, budget %d", c.name, per, budget)
		}
	}
}
