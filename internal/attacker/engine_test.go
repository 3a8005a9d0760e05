package attacker

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/malnet"
	"repro/internal/netsim"
	"repro/internal/outlets"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/webmail"
)

var epoch = time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)

type fixture struct {
	clock  *simtime.Clock
	sched  *simtime.Scheduler
	svc    *webmail.Service
	space  *netsim.AddressSpace
	bl     *netsim.Blacklist
	gaz    *geo.Gazetteer
	engine *Engine
}

func newFixture(t *testing.T, seed int64, accounts int) *fixture {
	t.Helper()
	clock := simtime.NewClock(epoch)
	sched := simtime.NewScheduler(clock)
	svc := webmail.NewService(webmail.Config{Clock: clock})
	gaz := geo.Default()
	f := &fixture{
		clock: clock, sched: sched, svc: svc, gaz: gaz,
		space: netsim.NewAddressSpace(rng.New(seed), gaz),
		bl:    netsim.NewBlacklist(),
	}
	f.engine = New(Config{
		Service: svc, Scheduler: sched, Space: f.space,
		Blacklist: f.bl, Gazetteer: gaz, Src: rng.New(seed),
		Cookies: netsim.NewCookieJar(),
	})
	for i := 0; i < accounts; i++ {
		addr := fmt.Sprintf("h%03d@honeymail.example", i)
		if err := svc.CreateAccount(addr, "pw", "Honey"); err != nil {
			t.Fatal(err)
		}
		// Seed some searchable financial mail.
		svc.Seed(addr, webmail.FolderInbox, "corp@x", addr,
			"Wire transfer confirmation", "the payment and account statement are attached", epoch.Add(-24*time.Hour))
		svc.Seed(addr, webmail.FolderInbox, "corp@x", addr,
			"Meeting notes", "about the company offsite", epoch.Add(-48*time.Hour))
	}
	return f
}

func (f *fixture) account(i int) string {
	return fmt.Sprintf("h%03d@honeymail.example", i)
}

func (f *fixture) pickup(i int, site *outlets.Site, hint *outlets.LocationHint) outlets.Pickup {
	return outlets.Pickup{
		Site:       site,
		Credential: outlets.Credential{Account: f.account(i), Password: "pw", Hint: hint},
		PostedAt:   epoch,
		At:         f.clock.Now(),
	}
}

var (
	pasteSite = &outlets.Site{Name: "pastebin.example", Kind: outlets.KindPaste}
	forumSite = &outlets.Site{Name: "hackforums.example", Kind: outlets.KindForum}
	ruSite    = &outlets.Site{Name: "paste-ru-1.example", Kind: outlets.KindPaste, Russian: true}
)

func runMany(t *testing.T, seed int64, n int, site *outlets.Site, hint *outlets.LocationHint) (*fixture, []Record) {
	t.Helper()
	f := newFixture(t, seed, n)
	for i := 0; i < n; i++ {
		f.engine.HandlePickup(f.pickup(i, site, hint))
	}
	f.sched.RunFor(210 * 24 * time.Hour)
	return f, f.engine.Records()
}

func TestPickupSpawnsAccess(t *testing.T) {
	f, recs := runMany(t, 1, 1, pasteSite, nil)
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.Outlet != OutletPaste || r.Cookie == "" || r.Account != f.account(0) {
		t.Fatalf("record = %+v", r)
	}
	// The webmail journal shows a login from that cookie.
	found := false
	for _, ev := range f.svc.Journal(f.account(0)) {
		if ev.Kind == webmail.EventLogin && ev.Cookie == r.Cookie {
			found = true
		}
	}
	if !found {
		t.Fatal("no login journaled for attacker cookie")
	}
}

func TestTaxonomyMixPaste(t *testing.T) {
	_, recs := runMany(t, 2, 300, pasteSite, nil)
	var hijack, gold, spam int
	for _, r := range recs {
		if r.Classes.Has(ClassHijacker) {
			hijack++
		}
		if r.Classes.Has(ClassGoldDigger) {
			gold++
		}
		if r.Classes.Has(ClassSpammer) {
			spam++
		}
	}
	n := float64(len(recs))
	if h := float64(hijack) / n; h < 0.12 || h > 0.30 {
		t.Fatalf("paste hijacker share = %.2f, want ~0.20 (Figure 2)", h)
	}
	if s := float64(spam) / n; s > 0.10 {
		t.Fatalf("paste spammer share = %.2f, want small (§4.2: 8 of 327)", s)
	}
	_ = gold
}

func TestTaxonomyMixForumVsPaste(t *testing.T) {
	_, pasteRecs := runMany(t, 3, 300, pasteSite, nil)
	_, forumRecs := runMany(t, 3, 300, forumSite, nil)
	share := func(recs []Record, c Class) float64 {
		n := 0
		for _, r := range recs {
			if r.Classes.Has(c) {
				n++
			}
		}
		return float64(n) / float64(len(recs))
	}
	if gf, gp := share(forumRecs, ClassGoldDigger), share(pasteRecs, ClassGoldDigger); gf <= gp {
		t.Fatalf("forum gold-digger share %.2f <= paste %.2f; Figure 2 wants forums highest", gf, gp)
	}
}

func TestMalwareNeverHijacksOrSpams(t *testing.T) {
	f := newFixture(t, 4, 100)
	for i := 0; i < 100; i++ {
		f.engine.HandleExfil(malnet.Exfiltration{
			Sample:     malnet.Sample{ID: "zeus-1", Family: malnet.FamilyZeus, C2Alive: true},
			Credential: malnet.Credential{Account: f.account(i), Password: "pw"},
			At:         f.clock.Now(),
		})
	}
	f.sched.RunFor(210 * 24 * time.Hour)
	recs := f.engine.Records()
	if len(recs) == 0 {
		t.Fatal("no malware accesses spawned")
	}
	nonTor := 0
	for _, r := range recs {
		if r.Classes.Has(ClassHijacker) || r.Classes.Has(ClassSpammer) {
			t.Fatalf("malware access with class %v (Figure 2: never)", r.Classes)
		}
		if !r.EmptyUA {
			t.Fatalf("malware access with user agent (§4.4): %+v", r)
		}
		if !r.Tor {
			nonTor++
		}
	}
	if nonTor != 1 {
		t.Fatalf("non-Tor malware accesses = %d, want exactly 1 (§4.5)", nonTor)
	}
}

func TestMalwareResaleWaves(t *testing.T) {
	f := newFixture(t, 5, 10)
	for i := 0; i < 10; i++ {
		f.engine.HandleExfil(malnet.Exfiltration{
			Sample:     malnet.Sample{ID: "zeus-1", C2Alive: true},
			Credential: malnet.Credential{Account: f.account(i), Password: "pw"},
			At:         f.clock.Now(),
		})
	}
	f.sched.RunFor(210 * 24 * time.Hour)
	waves := f.engine.ResaleWaves()
	if len(waves) != 10 {
		t.Fatalf("wave accounts = %d", len(waves))
	}
	for acct, times := range waves {
		if len(times) != 2 {
			t.Fatalf("%s has %d waves, want 2 (~day 30 and ~day 100)", acct, len(times))
		}
		d1 := times[0].Sub(epoch).Hours() / 24
		d2 := times[1].Sub(epoch).Hours() / 24
		if d1 < 15 || d1 > 45 || d2 < 85 || d2 > 115 {
			t.Fatalf("wave days = %.0f, %.0f; want ~30 and ~100 (Figure 4)", d1, d2)
		}
	}
}

func TestMalwareReturnsMoreThanPaste(t *testing.T) {
	// §4.3: 80% of paste/forum visitors never come back; 80% of
	// malware visitors do.
	_, pasteRecs := runMany(t, 6, 400, pasteSite, nil)
	f := newFixture(t, 6, 200)
	for i := 0; i < 200; i++ {
		f.engine.HandleExfil(malnet.Exfiltration{
			Sample:     malnet.Sample{ID: "z", C2Alive: true},
			Credential: malnet.Credential{Account: f.account(i), Password: "pw"},
		})
	}
	f.sched.RunFor(210 * 24 * time.Hour)
	malRecs := f.engine.Records()
	returning := func(recs []Record) float64 {
		n := 0
		for _, r := range recs {
			if r.Visits > 1 {
				n++
			}
		}
		return float64(n) / float64(len(recs))
	}
	rp, rm := returning(pasteRecs), returning(malRecs)
	if rp > 0.35 {
		t.Fatalf("paste returning share = %.2f, want ~0.20", rp)
	}
	if rm < 0.6 {
		t.Fatalf("malware returning share = %.2f, want ~0.80", rm)
	}
}

func TestLocationMalleabilityUK(t *testing.T) {
	hint := &outlets.LocationHint{Region: "uk", Midpoint: geo.LondonMidpoint, City: "Croydon"}
	_, withHint := runMany(t, 7, 250, pasteSite, hint)
	_, noHint := runMany(t, 7, 250, pasteSite, nil)
	median := func(recs []Record) float64 {
		var pts []geo.Point
		gaz := geo.Default()
		for _, r := range recs {
			if r.HomeCity == "" {
				continue // tor/proxy
			}
			c, _ := gaz.Lookup(r.HomeCity)
			pts = append(pts, c.Point)
		}
		return geo.MedianDistanceKm(pts, geo.LondonMidpoint)
	}
	mHint, mNo := median(withHint), median(noHint)
	if mHint >= mNo {
		t.Fatalf("median distance with hint %.0f km >= without %.0f km (Figure 5a wants closer)", mHint, mNo)
	}
}

func TestForumLessMalleableThanPaste(t *testing.T) {
	hint := &outlets.LocationHint{Region: "us", Midpoint: geo.PontiacMidpoint, City: "Peoria"}
	_, paste := runMany(t, 8, 250, pasteSite, hint)
	_, forum := runMany(t, 8, 250, forumSite, hint)
	frac := func(recs []Record) float64 {
		m, tot := 0, 0
		for _, r := range recs {
			if r.HomeCity == "" {
				continue
			}
			tot++
			if r.Malleable {
				m++
			}
		}
		return float64(m) / float64(tot)
	}
	if fp, ff := frac(paste), frac(forum); fp <= ff {
		t.Fatalf("paste malleable share %.2f <= forum %.2f (§4.5 wants paste higher)", fp, ff)
	}
}

func TestSpammersNeverExclusive(t *testing.T) {
	_, recs := runMany(t, 9, 500, pasteSite, nil)
	for _, r := range recs {
		if r.Classes.Has(ClassSpammer) && !r.Classes.Has(ClassGoldDigger) && !r.Classes.Has(ClassHijacker) {
			t.Fatalf("exclusive spammer found: %v (§4.2 forbids)", r.Classes)
		}
	}
}

func TestHijackChangesPasswordAndLocksOthers(t *testing.T) {
	f := newFixture(t, 10, 1)
	// Force a hijacker via a population with certainty.
	pop := pastePopulation
	pop.HijackerProb = 1
	pop.TorProb, pop.ProxyProb = 0, 0
	f.engine.spawn(f.account(0), "pw", OutletPaste, pop, nil, f.clock.Now())
	f.sched.RunFor(30 * 24 * time.Hour)
	pw, _ := f.svc.Password(f.account(0))
	if pw == "pw" {
		t.Fatal("hijacker did not change the password")
	}
}

func TestGoldDiggerSearchesAndReads(t *testing.T) {
	f := newFixture(t, 11, 1)
	pop := pastePopulation
	pop.GoldDiggerProb = 1
	pop.HijackerProb, pop.SpammerProb, pop.TosViolationProb = 0, 0, 0
	f.engine.spawn(f.account(0), "pw", OutletPaste, pop, nil, f.clock.Now())
	f.sched.RunFor(30 * 24 * time.Hour)
	log := f.svc.SearchLog(f.account(0))
	if len(log) < 2 {
		t.Fatalf("search log = %v, want >= 2 queries", log)
	}
	reads := 0
	for _, ev := range f.svc.Journal(f.account(0)) {
		if ev.Kind == webmail.EventRead {
			reads++
		}
	}
	if reads == 0 {
		t.Fatal("gold digger read nothing")
	}
}

func TestBlacklistGetsPopulated(t *testing.T) {
	f, _ := runMany(t, 12, 400, pasteSite, nil)
	// Some attackers log in from infected machines whose addresses
	// the engine lists; each such login shows on an activity page.
	for i := 0; i < 400; i++ {
		page, err := f.svc.ActivityPage(f.account(i))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range page {
			if _, listed := f.bl.LookupString(a.IP); listed {
				return
			}
		}
	}
	t.Fatal("no attacker IPs blacklisted (§4.5 found 20)")
}

func TestSomeAccountsSuspended(t *testing.T) {
	f, _ := runMany(t, 13, 100, pasteSite, nil)
	if n := f.svc.SuspendedCount(); n == 0 {
		t.Fatal("no accounts suspended (§4.1: 42 of 100 were blocked)")
	}
}

func TestBlackmailCampaignCaseStudy(t *testing.T) {
	f := newFixture(t, 14, 3)
	accounts := []string{f.account(0), f.account(1), f.account(2)}
	for _, a := range accounts {
		f.engine.RegisterCredential(a, "pw")
	}
	f.engine.RunBlackmailCampaign(accounts, epoch.Add(24*time.Hour))
	f.sched.RunFor(30 * 24 * time.Hour)
	if f.engine.Blackmailers() != 3 {
		t.Fatalf("blackmailers = %d", f.engine.Blackmailers())
	}
	// Drafts with bitcoin vocabulary must exist in at least one account.
	foundDraft := false
	for _, a := range accounts {
		snap, err := f.svc.Snapshot(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range snap.Drafts {
			if contains(body, "bitcoin") && contains(body, "localbitcoins") {
				foundDraft = true
			}
		}
	}
	if !foundDraft {
		t.Fatal("no abandoned bitcoin drafts found (§4.7)")
	}
}

func TestQuotaReaderCaseStudy(t *testing.T) {
	f := newFixture(t, 15, 1)
	f.engine.RegisterCredential(f.account(0), "pw")
	id, _ := f.svc.DeliverInbound(f.account(0), "apps-script-notifications@platform.example",
		"Apps Script notice: excessive computer time", "throttled")
	f.engine.RunQuotaReader(f.account(0), epoch.Add(time.Hour))
	f.sched.RunFor(48 * time.Hour)
	read := false
	for _, ev := range f.svc.Journal(f.account(0)) {
		if ev.Kind == webmail.EventRead && ev.Message == id {
			read = true
		}
	}
	if !read {
		t.Fatal("quota notice not read (§4.7)")
	}
}

func TestCardingRegistrationCaseStudy(t *testing.T) {
	f := newFixture(t, 16, 1)
	f.engine.RegisterCredential(f.account(0), "pw")
	f.engine.RunCardingRegistration(f.account(0), epoch.Add(time.Hour))
	f.sched.RunFor(48 * time.Hour)
	// Confirmation mail exists and was read.
	reads := 0
	for _, ev := range f.svc.Journal(f.account(0)) {
		if ev.Kind == webmail.EventRead {
			reads++
		}
	}
	if reads != 1 {
		t.Fatalf("carding confirmation reads = %d, want 1", reads)
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		ClassCurious:                    "curious",
		ClassGoldDigger:                 "gold-digger",
		ClassHijacker:                   "hijacker",
		ClassGoldDigger | ClassSpammer:  "gold-digger+spammer",
		ClassSpammer | ClassHijacker:    "spammer+hijacker",
		ClassGoldDigger | ClassHijacker: "gold-digger+hijacker",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Fatalf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	_, a := runMany(t, 17, 50, pasteSite, nil)
	_, b := runMany(t, 17, 50, pasteSite, nil)
	if len(a) != len(b) {
		t.Fatalf("runs differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Cookie != b[i].Cookie || a[i].Classes != b[i].Classes || !a[i].FirstAt.Equal(b[i].FirstAt) {
			t.Fatalf("record %d differs between same-seed runs", i)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
