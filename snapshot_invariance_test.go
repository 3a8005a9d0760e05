// Snapshot/resume invariance: an experiment frozen at its post-setup
// boundary, serialized through the full binary codec, decoded in
// fresh state and resumed must render every table and figure
// byte-identically to the uninterrupted run — determinism guarantee
// #5, alongside the shard/stream/dirty invariance suite. The suite
// covers both stream layouts (legacy root-stream setup and the
// SetupSeed split layout the warm-started matrix uses), resumption at
// the snapshot's own shard count and at different ones, and the
// boundary checks that keep snapshots honest.
package repro

import (
	"testing"
	"time"

	"repro/internal/honeynet"
	"repro/internal/snapshot"
)

func snapshotTestConfig(seed int64, shards int) honeynet.Config {
	cfg := streamTestConfig(seed, shards)
	cfg.Duration = 60 * 24 * time.Hour
	return cfg
}

// coldReport runs an uninterrupted Setup→Leak→Run and renders the
// full report.
func coldReport(t *testing.T, cfg honeynet.Config, seed int64) string {
	t.Helper()
	exp, err := honeynet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.RunAll(); err != nil {
		t.Fatal(err)
	}
	return renderStreamReport(t, exp, seed)
}

// resumedReport interrupts the same experiment at the post-setup
// boundary, round-trips it through the codec, resumes with the given
// config and runs to the deadline.
func resumedReport(t *testing.T, setupCfg, resumeCfg honeynet.Config, seed int64) string {
	t.Helper()
	exp, err := honeynet.New(setupCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Setup(); err != nil {
		t.Fatal(err)
	}
	st, err := exp.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := snapshot.Decode(st.Encode())
	if err != nil {
		t.Fatalf("snapshot codec round trip: %v", err)
	}
	resumed, err := honeynet.ResumeWith(decoded, resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Leak(); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(); err != nil {
		t.Fatal(err)
	}
	return renderStreamReport(t, resumed, seed)
}

// TestSnapshotInvariance is the snapshot engine's acceptance gate:
// save → encode → decode → resume → run-to-deadline renders byte-
// identically to the uninterrupted run, at shard counts 1 and 4, in
// both stream layouts, and even when the resumed experiment uses a
// different shard count than the snapshot was taken at (reports are
// already shard-count invariant; a snapshot must not break that).
func TestSnapshotInvariance(t *testing.T) {
	const seed = 177
	for _, layout := range []struct {
		name      string
		setupSeed int64
	}{
		{"legacy", 0},
		{"split-setup-stream", 9001},
	} {
		t.Run(layout.name, func(t *testing.T) {
			var baseline string
			for _, shards := range []int{1, 4} {
				cfg := snapshotTestConfig(seed, shards)
				cfg.SetupSeed = layout.setupSeed
				cold := coldReport(t, cfg, seed)
				resumed := resumedReport(t, cfg, cfg, seed)
				if cold != resumed {
					t.Fatalf("shards=%d: resumed run differs from uninterrupted run\n%s",
						shards, firstDiff(cold, resumed))
				}
				if baseline == "" {
					baseline = cold
				} else if cold != baseline {
					t.Fatalf("shards=%d: report not shard-count invariant\n%s", shards, firstDiff(baseline, cold))
				}
			}

			// Cross-shard resume: snapshot at 4 shards, resume at 2.
			snapCfg := snapshotTestConfig(seed, 4)
			snapCfg.SetupSeed = layout.setupSeed
			resumeCfg := snapshotTestConfig(seed, 2)
			resumeCfg.SetupSeed = layout.setupSeed
			crossed := resumedReport(t, snapCfg, resumeCfg, seed)
			if crossed != baseline {
				t.Fatalf("snapshot at 4 shards resumed at 2 drifted\n%s", firstDiff(baseline, crossed))
			}
		})
	}
}

// TestSnapshotCadenceFork: scan/scrape cadences are post-fork axes —
// a snapshot resumes under different cadences (the resumed
// experiment re-arms its own trigger chains) and still byte-matches
// the cold run of the same config. Regression test: the drift
// verifier once compared trigger-wheel chains against a snapshot
// taken under different cadences and refused a legitimate fork.
func TestSnapshotCadenceFork(t *testing.T) {
	base := snapshotTestConfig(88, 2)
	base.SetupSeed = 5150
	forkCfg := base
	forkCfg.ScanInterval = 2 * time.Hour
	forkCfg.ScrapeInterval = 6 * time.Hour
	resumed := resumedReport(t, base, forkCfg, 88)
	if cold := coldReport(t, forkCfg, 88); cold != resumed {
		t.Fatalf("cadence-forked resume differs from cold run\n%s", firstDiff(cold, resumed))
	}
}

// TestSnapshotForkDivergence: with the split stream layout, a
// snapshot forks into runs with different experiment seeds — same
// honey accounts, divergent attacker draws. The paper's single fixed
// deployment becomes a family of counterfactual runs over one decoy
// infrastructure.
func TestSnapshotForkDivergence(t *testing.T) {
	base := snapshotTestConfig(300, 2)
	base.SetupSeed = 4242
	exp, err := honeynet.New(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Setup(); err != nil {
		t.Fatal(err)
	}
	st, err := exp.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	reports := map[int64]string{}
	for _, seed := range []int64{300, 301} {
		cfg := base
		cfg.Seed = seed
		forked, err := honeynet.ResumeWith(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := forked.Leak(); err != nil {
			t.Fatal(err)
		}
		if err := forked.Run(); err != nil {
			t.Fatal(err)
		}
		reports[seed] = renderStreamReport(t, forked, seed)

		// The forked run must byte-match a cold run of the same config.
		if cold := coldReport(t, cfg, seed); cold != reports[seed] {
			t.Fatalf("seed %d: forked run differs from cold run\n%s", seed, firstDiff(cold, reports[seed]))
		}
	}
	if reports[300] == reports[301] {
		t.Fatal("different experiment seeds produced identical runs (fork divergence broken)")
	}
}

// TestSnapshotBoundary: snapshots outside the post-setup boundary and
// resumes against mismatched configs are refused.
func TestSnapshotBoundary(t *testing.T) {
	cfg := snapshotTestConfig(55, 2)
	exp, err := honeynet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Snapshot(); err == nil {
		t.Fatal("Snapshot before Setup accepted")
	}
	if err := exp.Setup(); err != nil {
		t.Fatal(err)
	}
	st, err := exp.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Leak(); err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Snapshot(); err == nil {
		t.Fatal("Snapshot after Leak accepted")
	}

	// Mismatched setup-relevant config: different mailbox size.
	bad := cfg
	bad.MailboxSize = cfg.MailboxSize + 1
	if _, err := honeynet.ResumeWith(st, bad); err == nil {
		t.Fatal("ResumeWith accepted a config whose setup differs from the snapshot's")
	}
	// Legacy layout pins the seed (setup drew from the root stream).
	bad = cfg
	bad.Seed = cfg.Seed + 1
	if _, err := honeynet.ResumeWith(st, bad); err == nil {
		t.Fatal("ResumeWith accepted a diverged seed under the legacy stream layout")
	}

	// The config the snapshot records resumes and runs.
	restored, err := honeynet.ConfigFromSnapshot(st)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := honeynet.ResumeWith(st, restored)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Leak(); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed.SinkholeCount() == 0 && len(resumed.Records()) == 0 {
		t.Fatal("resumed run simulated nothing")
	}
}
