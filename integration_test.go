// Cross-module integration tests: run a medium deployment and check
// the invariants that span subsystem boundaries — containment (no mail
// escapes), monitoring fidelity (the inferred dataset agrees with the
// attacker engine's ground truth), and classification accuracy (the
// paper-faithful inference pipeline recovers what the generative
// models actually did). These are the checks a real deployment could
// never make; the simulator's ground truth makes them testable.
package repro

import (
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/attacker"
	"repro/internal/honeynet"
	"repro/internal/sinkhole"
)

func mediumConfig(seed int64) honeynet.Config {
	return honeynet.Config{
		Seed: seed,
		Plan: []honeynet.GroupSpec{
			{ID: 1, Count: 8, Channel: analysis.OutletPaste, Hint: analysis.HintNone, Label: "paste"},
			{ID: 2, Count: 6, Channel: analysis.OutletPaste, Hint: analysis.HintUK, Label: "paste uk"},
			{ID: 3, Count: 6, Channel: analysis.OutletForum, Hint: analysis.HintNone, Label: "forum"},
			{ID: 5, Count: 6, Channel: analysis.OutletMalware, Hint: analysis.HintNone, Label: "malware"},
		},
		Duration:       120 * 24 * time.Hour,
		MailboxSize:    30,
		ScanInterval:   30 * time.Minute,
		ScrapeInterval: 2 * time.Hour,
	}
}

func runMedium(t *testing.T, seed int64) (*honeynet.Experiment, *analysis.Dataset) {
	t.Helper()
	exp, err := honeynet.New(mediumConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.RunAll(); err != nil {
		t.Fatal(err)
	}
	return exp, exp.Dataset()
}

// TestContainment: every honey account sends from the sinkhole
// address, and the count of sinkholed messages equals the platforms'
// send events. The sinkhole refuses, uncounted, any mail with another
// envelope sender, so an escaped message shows as a count below the
// journaled sends.
func TestContainment(t *testing.T) {
	exp, err := honeynet.New(mediumConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Setup(); err != nil {
		t.Fatal(err)
	}
	// Only an account without activity exports, so the send-from
	// override is read at the post-setup boundary; nothing after it
	// sets one.
	for _, a := range exp.Assignments() {
		acct, err := exp.Service(a.Account).ExportAccount(a.Account)
		if err != nil {
			t.Fatal(err)
		}
		if acct.SendFrom != sinkhole.Sender {
			t.Fatalf("%s sends from %q", a.Account, acct.SendFrom)
		}
	}
	if err := exp.Leak(); err != nil {
		t.Fatal(err)
	}
	if err := exp.Run(); err != nil {
		t.Fatal(err)
	}
	sends := 0
	for _, a := range exp.Assignments() {
		for _, ev := range exp.Service(a.Account).Journal(a.Account) {
			if ev.Kind.String() == "send" {
				sends++
			}
		}
	}
	if sends == 0 {
		t.Fatal("no mail was sent; the run checks nothing")
	}
	if got := exp.SinkholeCount(); got != sends {
		t.Fatalf("sinkhole counted %d messages, platform journaled %d sends", got, sends)
	}
}

// TestMonitorFidelity: every access in the monitoring dataset
// corresponds to a ground-truth attacker record (same cookie, same
// account), i.e. the pipeline never invents accesses; misses are only
// due to documented visibility loss.
func TestMonitorFidelity(t *testing.T) {
	exp, ds := runMedium(t, 22)
	truth := map[string]attacker.Record{}
	for _, r := range exp.Records() {
		truth[r.Cookie] = r
	}
	for _, a := range ds.Accesses {
		r, ok := truth[a.Cookie]
		if !ok {
			t.Fatalf("monitor invented access %q on %s", a.Cookie, a.Account)
		}
		if r.Account != a.Account {
			t.Fatalf("cookie %q attributed to %s, ground truth %s", a.Cookie, a.Account, r.Account)
		}
		// Outlet annotation agrees (the plan's channel vs the engine's
		// label; paste-ru maps to the paste label at the engine level).
		if string(a.Outlet) != string(r.Outlet) && !(a.Outlet == analysis.OutletPasteRussian && r.Outlet == attacker.OutletPasteRussian) {
			t.Fatalf("outlet mismatch for %q: dataset %q vs truth %q", a.Cookie, a.Outlet, r.Outlet)
		}
	}
	if len(ds.Accesses) == 0 {
		t.Fatal("empty dataset")
	}
}

// TestClassificationAccuracy: the time-window attribution of actions
// to accesses recovers the generative behaviour at the account level.
// Cookie-level attribution is inherently lossy — a spam burst suspends
// the account before the spammer's own activity row is ever scraped,
// so the sends land on the last *visible* access (the paper's §4.2
// visibility loss) — but the inferred class must never point at an
// account where the behaviour did not happen at all.
func TestClassificationAccuracy(t *testing.T) {
	exp, ds := runMedium(t, 23)
	spamAccounts := map[string]bool{}
	hijackAccounts := map[string]bool{}
	for _, r := range exp.Records() {
		if r.Classes.Has(attacker.ClassSpammer) {
			spamAccounts[r.Account] = true
		}
		if r.Classes.Has(attacker.ClassHijacker) {
			hijackAccounts[r.Account] = true
		}
	}
	cs := analysis.Classify(ds)
	for _, c := range cs {
		if c.Classes.Has(analysis.Spammer) && !spamAccounts[c.Access.Account] {
			t.Fatalf("access %s inferred spammer but account %s never spammed",
				c.Access.Cookie, c.Access.Account)
		}
		if c.Classes.Has(analysis.Hijacker) && !hijackAccounts[c.Access.Account] {
			t.Fatalf("access %s inferred hijacker but account %s was never hijacked",
				c.Access.Cookie, c.Access.Account)
		}
	}
}

// TestKeywordInferenceRecoversSearches: terms the TF-IDF pipeline
// ranks highly should overlap the queries attackers actually typed
// (ground truth search logs).
func TestKeywordInferenceRecoversSearches(t *testing.T) {
	exp, _ := runMedium(t, 24)
	searched := map[string]bool{}
	for _, a := range exp.Assignments() {
		for _, q := range exp.Service(a.Account).SearchLog(a.Account) {
			searched[q] = true
		}
	}
	if len(searched) == 0 {
		t.Skip("no searches happened for this seed")
	}
	agg, err := exp.Aggregates()
	if err != nil {
		t.Fatal(err)
	}
	result := agg.KeywordInference(exp.SeededContents(), exp.DropWords())
	hits := 0
	for _, row := range result.TopSearched(15) {
		if searched[row.Term] {
			hits++
		}
	}
	if hits < 2 {
		t.Fatalf("top-15 inferred terms contain only %d actually-searched terms", hits)
	}
}

// TestLeakChannelIsolation: accounts leaked only to malware never see
// hijacks or spam, end to end (platform journal, not just dataset).
func TestLeakChannelIsolation(t *testing.T) {
	exp, _ := runMedium(t, 25)
	for _, a := range exp.Assignments() {
		if a.Group.Channel != analysis.OutletMalware {
			continue
		}
		for _, ev := range exp.Service(a.Account).Journal(a.Account) {
			if ev.Kind.String() == "password-change" {
				t.Fatalf("malware-leaked %s was hijacked", a.Account)
			}
		}
	}
}

// TestSeedSensitivity: different seeds change counts but preserve the
// structural invariants (determinism per seed is covered elsewhere).
func TestSeedSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run seed sweep in -short mode")
	}
	for _, seed := range []int64{31, 32, 33} {
		exp, ds := runMedium(t, seed)
		agg, err := exp.Aggregates()
		if err != nil {
			t.Fatal(err)
		}
		if c := agg.PerOutlet[analysis.OutletMalware]; c.Hijacker != 0 || c.Spammer != 0 {
			t.Fatalf("seed %d: malware hijack/spam = %d/%d", seed, c.Hijacker, c.Spammer)
		}
		for _, c := range analysis.Classify(ds) {
			if c.Classes.Has(analysis.Spammer) && !c.Classes.Has(analysis.GoldDigger) && !c.Classes.Has(analysis.Hijacker) {
				// Inferred exclusive spammers can appear when actions
				// are attributed to a window with no reads; the
				// generative invariant is checked in attacker tests.
				t.Logf("seed %d: inferred exclusive spammer %s (attribution ambiguity)", seed, c.Access.Cookie)
			}
		}
	}
}
