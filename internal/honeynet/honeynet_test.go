package honeynet

import (
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/sinkhole"
	"repro/internal/webmail"
)

// fastConfig keeps unit-test runs quick: fewer accounts, a shorter
// window, coarser scan/scrape cadence. Shape assertions that need the
// full population live in the benchmarks and in TestFullRun below.
func fastConfig(seed int64) Config {
	return Config{
		Seed: seed,
		Plan: []GroupSpec{
			{ID: 1, Count: 6, Channel: analysis.OutletPaste, Hint: analysis.HintNone, Label: "paste"},
			{ID: 2, Count: 4, Channel: analysis.OutletPaste, Hint: analysis.HintUK, Label: "paste uk"},
			{ID: 3, Count: 4, Channel: analysis.OutletForum, Hint: analysis.HintNone, Label: "forum"},
			{ID: 5, Count: 4, Channel: analysis.OutletMalware, Hint: analysis.HintNone, Label: "malware"},
		},
		Duration:       60 * 24 * time.Hour,
		MailboxSize:    25,
		ScanInterval:   time.Hour,
		ScrapeInterval: 6 * time.Hour,
	}
}

func TestTable1PlanMatchesPaper(t *testing.T) {
	plan := Table1Plan()
	if got := PlanAccounts(plan); got != 100 {
		t.Fatalf("plan accounts = %d, want 100", got)
	}
	perGroup := map[int]int{}
	for _, g := range plan {
		perGroup[g.ID] += g.Count
	}
	want := map[int]int{1: 30, 2: 20, 3: 10, 4: 20, 5: 20}
	for id, n := range want {
		if perGroup[id] != n {
			t.Fatalf("group %d = %d accounts, want %d (Table 1)", id, perGroup[id], n)
		}
	}
	if err := ValidatePlan(plan); err != nil {
		t.Fatal(err)
	}
}

func TestValidatePlanRejections(t *testing.T) {
	cases := []GroupSpec{
		{ID: 1, Count: 0, Channel: analysis.OutletPaste},
		{ID: 1, Count: 5, Channel: "pigeon"},
		{ID: 1, Count: 5, Channel: analysis.OutletPaste, Hint: "mars"},
		{ID: 5, Count: 5, Channel: analysis.OutletMalware, Hint: analysis.HintUK},
	}
	for i, g := range cases {
		if err := ValidatePlan([]GroupSpec{g}); err == nil {
			t.Fatalf("case %d accepted: %+v", i, g)
		}
	}
	if err := ValidatePlan(nil); err == nil {
		t.Fatal("empty plan accepted")
	}
}

func TestLifecycleOrderEnforced(t *testing.T) {
	e, err := New(fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Leak(); err == nil {
		t.Fatal("Leak before Setup accepted")
	}
	if err := e.Run(); err == nil {
		t.Fatal("Run before Leak accepted")
	}
	if err := e.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := e.Setup(); err == nil {
		t.Fatal("double Setup accepted")
	}
	if err := e.Leak(); err != nil {
		t.Fatal(err)
	}
	if err := e.Leak(); err == nil {
		t.Fatal("double Leak accepted")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSetupCreatesSeededInstrumentedAccounts(t *testing.T) {
	e, err := New(fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Setup(); err != nil {
		t.Fatal(err)
	}
	if n := platformAccounts(e); n != 18 {
		t.Fatalf("accounts = %d, want 18", n)
	}
	for _, as := range e.Assignments() {
		a := as.Account
		c, err := e.Service(a).Counts(a)
		if err != nil {
			t.Fatal(err)
		}
		if c.Inbox+c.Sent != 25 {
			t.Fatalf("%s seeded with %d messages, want 25", a, c.Inbox+c.Sent)
		}
		if !e.blockOf[a].shard.runtime.Installed(a) {
			t.Fatalf("%s has no script installed", a)
		}
	}
	if len(e.Assignments()) != 18 {
		t.Fatalf("assignments = %d", len(e.Assignments()))
	}
}

func TestEndToEndProducesDataset(t *testing.T) {
	e, err := New(fastConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	ds := e.Dataset()
	if len(ds.Accesses) == 0 {
		t.Fatal("no accesses observed")
	}
	// Every access carries plan annotations.
	for _, a := range ds.Accesses {
		if a.Outlet == "" || a.LeakTime.IsZero() {
			t.Fatalf("unannotated access %+v", a)
		}
		if a.First.Before(a.LeakTime) {
			t.Fatalf("access before leak: %+v", a)
		}
	}
	if n := e.SeededContents().Accounts(); n != 18 {
		t.Fatalf("contents for %d accounts", n)
	}
	// The engine's ground truth and the monitor should roughly agree
	// on volume (monitor misses post-hijack cookies, so <=).
	truth := e.Records()
	if len(ds.Accesses) > len(truth) {
		t.Fatalf("monitor saw %d accesses, ground truth only %d", len(ds.Accesses), len(truth))
	}
}

func TestOutboundMailAllSinkholed(t *testing.T) {
	e, err := New(fastConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Setup(); err != nil {
		t.Fatal(err)
	}
	// Every honey account's send-from override points at the sinkhole.
	// Only an account without activity exports, so this reads the
	// post-setup boundary; nothing after it sets a send-from.
	for _, a := range e.assignments {
		acct, err := e.Service(a.Account).ExportAccount(a.Account)
		if err != nil {
			t.Fatal(err)
		}
		if acct.SendFrom != sinkhole.Sender {
			t.Fatalf("%s sends from %q", a.Account, acct.SendFrom)
		}
	}
	if err := e.Leak(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// A shard's sinkhole refuses, uncounted, any mail with another
	// envelope sender, so every send the platforms journaled must be
	// counted.
	sends := 0
	for _, a := range e.assignments {
		for _, ev := range e.Service(a.Account).Journal(a.Account) {
			if ev.Kind == webmail.EventSend {
				sends++
			}
		}
	}
	if sends == 0 {
		t.Fatal("no mail was sent; the run checks nothing")
	}
	if got := e.SinkholeCount(); got != sends {
		t.Fatalf("sinkholes counted %d messages, platforms journaled %d sends", got, sends)
	}
}

// platformAccounts counts the accounts on every shard's platform.
func platformAccounts(e *Experiment) int {
	n := 0
	for _, sh := range e.shards {
		n += len(sh.svc.Accounts())
	}
	return n
}

func TestDeterministicDataset(t *testing.T) {
	run := func() *analysis.Dataset {
		e, err := New(fastConfig(5))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		return e.Dataset()
	}
	a, b := run(), run()
	if len(a.Accesses) != len(b.Accesses) || len(a.Actions) != len(b.Actions) {
		t.Fatalf("runs differ: %d/%d accesses, %d/%d actions",
			len(a.Accesses), len(b.Accesses), len(a.Actions), len(b.Actions))
	}
	for i := range a.Accesses {
		if a.Accesses[i] != b.Accesses[i] {
			t.Fatalf("access %d differs between same-seed runs", i)
		}
	}
}

func TestMalwareAccessesAnonymousAndStealthy(t *testing.T) {
	e, err := New(fastConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	ds := e.Dataset()
	cs := analysis.Classify(ds)
	for _, c := range cs {
		if c.Access.Outlet != analysis.OutletMalware {
			continue
		}
		if c.Classes.Has(analysis.Hijacker) || c.Classes.Has(analysis.Spammer) {
			t.Fatalf("malware access classified %v", c.Classes)
		}
		if c.Access.UserAgent != "" {
			t.Fatalf("malware access with UA %q", c.Access.UserAgent)
		}
	}
}

func TestDropWordsIncludeHandles(t *testing.T) {
	e, err := New(fastConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Setup(); err != nil {
		t.Fatal(err)
	}
	dw := e.DropWords()
	if len(dw) < 18 {
		t.Fatalf("drop words = %d, want >= one per account", len(dw))
	}
}

// TestFullRun exercises the complete Table 1 deployment over the full
// seven months and checks the headline shapes. It is the slowest test
// in the repository (a few seconds) but the one that actually
// reproduces §4.1.
func TestFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full 7-month run in -short mode")
	}
	e, err := New(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	agg, err := e.Aggregates()
	if err != nil {
		t.Fatal(err)
	}
	o := agg.Overview()

	// §4.1 shape: hundreds of accesses on 100 accounts, tens of
	// accounts suspended, reads and sends observed, drafts composed.
	if o.UniqueAccesses < 150 || o.UniqueAccesses > 900 {
		t.Fatalf("unique accesses = %d, want the paper's order of magnitude (327)", o.UniqueAccesses)
	}
	if o.EmailsRead == 0 || o.EmailsSent == 0 || o.UniqueDrafts == 0 {
		t.Fatalf("overview = %+v, want nonzero activity in every column", o)
	}
	if o.SuspendedAccounts < 10 || o.SuspendedAccounts > 80 {
		t.Fatalf("suspended = %d, want tens (paper: 42)", o.SuspendedAccounts)
	}
	if o.Countries < 10 {
		t.Fatalf("countries = %d, want >= 10 (paper: 29)", o.Countries)
	}
	if o.WithoutLocation == 0 {
		t.Fatal("no anonymous accesses (paper: 154 of 327)")
	}
	if o.BlacklistedIPs == 0 {
		t.Fatal("no blacklisted IPs (paper: 20)")
	}

	// Figure 2 shape: malware never hijacks; forums have the highest
	// gold-digger share.
	per := agg.PerOutlet
	if per[analysis.OutletMalware].Hijacker != 0 || per[analysis.OutletMalware].Spammer != 0 {
		t.Fatalf("malware classes = %+v", per[analysis.OutletMalware])
	}
	share := func(c analysis.ClassCounts, n int) float64 {
		if c.Total == 0 {
			return 0
		}
		return float64(n) / float64(c.Total)
	}
	forumGold := share(per[analysis.OutletForum], per[analysis.OutletForum].GoldDigger)
	pasteGold := share(per[analysis.OutletPaste], per[analysis.OutletPaste].GoldDigger)
	if forumGold <= pasteGold {
		t.Fatalf("forum gold share %.2f <= paste %.2f (Figure 2)", forumGold, pasteGold)
	}

	// Figure 3 shape: paste pickups concentrate earlier than malware.
	within25 := func(o analysis.Outlet) float64 {
		sk := agg.TimeToAccess[o]
		if sk == nil {
			return 0
		}
		for i, p := range sk.Probes() {
			if p == 25 {
				return sk.Frac(i)
			}
		}
		t.Fatalf("no 25-day probe in %v", sk.Probes())
		return 0
	}
	if p, m := within25(analysis.OutletPaste), within25(analysis.OutletMalware); p <= m {
		t.Fatalf("within-25d: paste %.2f <= malware %.2f (Figure 3)", p, m)
	}

	// §4.5 location shape: paste UK-hint median < paste no-hint median.
	radii := agg.MedianRadii(analysis.HintUK)
	var hintMed, plainMed float64
	for _, r := range radii {
		if r.Group.Outlet == analysis.OutletPaste && r.Group.Hint == analysis.HintUK {
			hintMed = r.MedianKm
		}
		if r.Group.Outlet == analysis.OutletPaste && r.Group.Hint == analysis.HintNone {
			plainMed = r.MedianKm
		}
	}
	if hintMed == 0 || plainMed == 0 || hintMed >= plainMed {
		t.Fatalf("UK medians: hint %.0f km vs plain %.0f km (Figure 5a wants hint smaller)", hintMed, plainMed)
	}

	// Table 2 shape: bitcoin vocabulary tops the searched list.
	tfidf := agg.KeywordInference(e.SeededContents(), e.DropWords())
	top := tfidf.TopSearched(10)
	seen := map[string]bool{}
	for _, row := range top {
		seen[row.Term] = true
	}
	if !seen["bitcoin"] && !seen["bitcoins"] && !seen["localbitcoins"] {
		t.Fatalf("top searched lacks bitcoin vocabulary: %+v", top)
	}
}
