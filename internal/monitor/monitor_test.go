package monitor

import (
	"testing"
	"time"

	"repro/internal/appscript"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/webmail"
)

var epoch = time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)

// monitorCookiePrefix marks the cookies the fixture's scraper issues.
const monitorCookiePrefix = "GAPS-mon-"

type fixture struct {
	clock *simtime.Clock
	sched *simtime.Scheduler
	svc   *webmail.Service
	space *netsim.AddressSpace
	jar   *netsim.CookieJar // the attackers' browsers
	sink  *recordingSink    // everything the scraper and the scripts reported
	mon   *Monitor
	rt    *appscript.Runtime
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	clock := simtime.NewClock(epoch)
	sched := simtime.NewScheduler(clock)
	svc := webmail.NewService(webmail.Config{Clock: clock})
	space := netsim.NewAddressSpace(rng.New(11), geo.Default())
	sink := &recordingSink{}
	monEP, err := space.FromCity("London") // the infrastructure's home city
	if err != nil {
		t.Fatal(err)
	}
	mon := New(Config{
		Service:  svc,
		Wheel:    simtime.NewTriggerWheel(sched),
		Sink:     sink,
		Endpoint: monEP,
		Cookies:  netsim.NewCookieJarPrefixed("mon"),
	})
	rt := appscript.NewRuntime(svc, simtime.NewTriggerWheel(sched), sink)
	f := &fixture{clock: clock, sched: sched, svc: svc, space: space, jar: netsim.NewCookieJar(), sink: sink, mon: mon, rt: rt}
	if err := svc.CreateAccount("h1@honeymail.example", "pw1", "Honey One"); err != nil {
		t.Fatal(err)
	}
	mon.Track("h1@honeymail.example", "pw1")
	if err := rt.Install("h1@honeymail.example", appscript.Options{}); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *fixture) attackerLogin(t *testing.T, city, ua string) *webmail.Session {
	t.Helper()
	return f.loginAs(t, "pw1", f.jar.Issue(), city, ua)
}

// loginAs logs into h1 with a chosen password and cookie, from a
// fresh address in city.
func (f *fixture) loginAs(t *testing.T, password, cookie, city, ua string) *webmail.Session {
	t.Helper()
	ep, err := f.space.FromCity(city)
	if err != nil {
		t.Fatal(err)
	}
	ep.UserAgent = ua
	se, err := f.svc.Login("h1@honeymail.example", password, cookie, ep)
	if err != nil {
		t.Fatal(err)
	}
	return se
}

func TestScrapeCollectsAttackerAccesses(t *testing.T) {
	f := newFixture(t)
	f.attackerLogin(t, "Bucharest", "")
	f.mon.ScrapeAll(f.clock.Now())
	ds := f.sink.latest()
	if len(ds) != 1 {
		t.Fatalf("streamed %d records, want 1", len(ds))
	}
	if ds[0].City != "Bucharest" || ds[0].Account != "h1@honeymail.example" {
		t.Fatalf("record = %+v", ds[0])
	}
}

func TestSelfAccessesFiltered(t *testing.T) {
	f := newFixture(t)
	// Attacker connects from the monitor's own city (London) plus one
	// from elsewhere; the monitor also scrapes (own cookie).
	f.attackerLogin(t, "London", "")
	f.attackerLogin(t, "Tokyo", "")
	f.mon.ScrapeAll(f.clock.Now())
	f.mon.ScrapeAll(f.clock.Now()) // monitor's row exists by the 2nd scrape
	ds := f.sink.latest()
	if len(ds) != 1 || ds[0].City != "Tokyo" {
		t.Fatalf("stream after self-filter = %+v", ds)
	}
}

func TestPeriodicScrapingTracksDurations(t *testing.T) {
	f := newFixture(t)
	f.mon.Start(30 * time.Minute)
	se := f.attackerLogin(t, "Kyiv", "")
	f.sched.RunFor(2 * time.Hour)
	se.Search("password") // attacker returns mid-window
	f.sched.RunFor(2 * time.Hour)
	ds := f.sink.latest()
	if len(ds) != 1 {
		t.Fatalf("streamed %d records, want 1", len(ds))
	}
	if d := ds[0].Last.Sub(ds[0].First); d < 2*time.Hour-time.Minute {
		t.Fatalf("tracked duration = %v, want >= ~2h", d)
	}
}

func TestPasswordChangeFreezesScrapes(t *testing.T) {
	f := newFixture(t)
	f.mon.Start(30 * time.Minute)
	se := f.attackerLogin(t, "Minsk", "")
	f.sched.RunFor(time.Hour)
	se.ChangePassword("owned")
	f.sched.RunFor(time.Hour)
	fails := f.sink.failures
	if len(fails) != 1 || fails[0].Reason != "password-changed" {
		t.Fatalf("failures = %+v", fails)
	}
	// The attacker's access row survives from the last good scrape.
	ds := f.sink.latest()
	if len(ds) != 1 || ds[0].City != "Minsk" {
		t.Fatalf("stream = %+v", ds)
	}
	// ...and notifications keep arriving (scripts still run): read a
	// message post-hijack.
	id, _ := f.svc.Seed("h1@honeymail.example", webmail.FolderInbox, "b@x", "h1", "s", "b", epoch)
	se.Read(id)
	f.sched.RunFor(time.Hour)
	reads := 0
	for _, n := range f.sink.notifications {
		if n.Account == "h1@honeymail.example" && n.Kind == appscript.NoteRead {
			reads++
		}
	}
	if reads != 1 {
		t.Fatalf("post-hijack read notifications = %d, want 1", reads)
	}
}

// The defender path: UpdatePassword ends the lockout, the next tick
// resumes from the cursor of the last good scrape and streams every
// row that changed while the scraper was locked out, and a second
// hijack reports no second failure (failures are first-only per
// account).
func TestUpdatePasswordResumesFromCursor(t *testing.T) {
	f := newFixture(t)
	f.mon.Start(30 * time.Minute)
	hijackerCookie := f.jar.Issue()
	se := f.loginAs(t, "pw1", hijackerCookie, "Minsk", "")
	f.sched.RunFor(time.Hour)
	if len(f.sink.accesses) != 1 {
		t.Fatalf("pre-hijack stream = %+v", f.sink.accesses)
	}
	if err := se.ChangePassword("owned"); err != nil {
		t.Fatal(err)
	}
	f.sched.RunFor(time.Hour)
	if len(f.sink.failures) != 1 || f.sink.failures[0].Reason != "password-changed" {
		t.Fatalf("failures = %+v", f.sink.failures)
	}

	// During the lockout the hijacker returns and a buyer logs in.
	f.loginAs(t, "owned", hijackerCookie, "Minsk", "")
	f.loginAs(t, "owned", f.jar.Issue(), "Lagos", "Mozilla/5.0 Chrome")
	f.sched.RunFor(2 * time.Hour)
	if len(f.sink.accesses) != 1 {
		t.Fatalf("locked-out scraper streamed %+v", f.sink.accesses[1:])
	}

	if err := f.svc.ResetPassword("h1@honeymail.example", "reset-1"); err != nil {
		t.Fatal(err)
	}
	f.mon.UpdatePassword("h1@honeymail.example", "reset-1")
	f.sched.RunFor(30 * time.Minute)
	got := f.sink.accesses[1:]
	if len(got) != 2 || got[0].Cookie != hijackerCookie || got[0].Visits != 2 || got[1].City != "Lagos" {
		t.Fatalf("rows streamed after the reset = %+v, want the returning hijacker then the buyer", got)
	}

	// A second hijack locks the scraper out again, silently.
	se = f.loginAs(t, "reset-1", f.jar.Issue(), "Kyiv", "")
	if err := se.ChangePassword("owned-again"); err != nil {
		t.Fatal(err)
	}
	f.sched.RunFor(2 * time.Hour)
	if len(f.sink.failures) != 1 {
		t.Fatalf("failures after a second hijack = %+v, want the first only", f.sink.failures)
	}
	if n := len(f.sink.accesses); n != 3 {
		t.Fatalf("locked-out scraper streamed %+v", f.sink.accesses[3:])
	}
}

func TestSuspensionRecordedAsFailure(t *testing.T) {
	f := newFixture(t)
	f.mon.Start(30 * time.Minute)
	f.svc.Suspend("h1@honeymail.example", "abuse")
	f.sched.RunFor(time.Hour)
	fails := f.sink.failures
	if len(fails) != 1 || fails[0].Reason != "suspended" {
		t.Fatalf("failures = %+v", fails)
	}
	// Failure is recorded only once even as scraping continues.
	f.sched.RunFor(5 * time.Hour)
	if got := len(f.sink.failures); got != 1 {
		t.Fatalf("failures after more scrapes = %d", got)
	}
}

func TestHeartbeatTracking(t *testing.T) {
	f := newFixture(t)
	f.sched.RunFor(25 * time.Hour)
	var hb time.Time
	for _, n := range f.sink.notifications {
		if n.Account == "h1@honeymail.example" && n.Kind == appscript.NoteHeartbeat {
			hb = n.Time
		}
	}
	if hb.IsZero() {
		t.Fatal("no heartbeat forwarded")
	}
	if hb.Before(epoch.Add(24 * time.Hour)) {
		t.Fatalf("heartbeat at %v", hb)
	}
}

func TestStopEndsScraping(t *testing.T) {
	f := newFixture(t)
	stop := f.mon.Start(10 * time.Minute)
	stop()
	f.attackerLogin(t, "Cairo", "")
	f.sched.RunFor(2 * time.Hour)
	if n := len(f.sink.accesses); n != 0 {
		t.Fatalf("streamed %d records after stop", n)
	}
	// Stopping is idempotent.
	stop()
}

// The scraper visits accounts in account order, whatever order they
// were tracked in, so the stream order is deterministic.
func TestDatasetDeterministicOrder(t *testing.T) {
	f := newFixture(t)
	f.svc.CreateAccount("h0@honeymail.example", "pw0", "Honey Zero")
	f.mon.Track("h0@honeymail.example", "pw0") // tracked after h1, sorts first
	f.attackerLogin(t, "Lagos", "")
	ep, _ := f.space.FromCity("Hanoi")
	if _, err := f.svc.Login("h0@honeymail.example", "pw0", f.jar.Issue(), ep); err != nil {
		t.Fatal(err)
	}
	f.mon.ScrapeAll(f.clock.Now())
	got := f.sink.accesses
	if len(got) != 2 || got[0].Account != "h0@honeymail.example" || got[1].Account != "h1@honeymail.example" {
		t.Fatalf("stream = %+v, want h0's row then h1's", got)
	}
}
