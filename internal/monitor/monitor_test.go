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

type fixture struct {
	clock *simtime.Clock
	sched *simtime.Scheduler
	svc   *webmail.Service
	space *netsim.AddressSpace
	store *Store
	sink  *recordingSink // everything the store forwarded
	mon   *Monitor
	rt    *appscript.Runtime
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	clock := simtime.NewClock(epoch)
	sched := simtime.NewScheduler(clock)
	svc := webmail.NewService(webmail.Config{Clock: clock})
	space := netsim.NewAddressSpace(rng.New(11), geo.Default())
	store := NewStore()
	sink := &recordingSink{}
	store.SetSink(sink)
	monEP, err := space.FromCity("London") // the infrastructure's home city
	if err != nil {
		t.Fatal(err)
	}
	mon := New(Config{Service: svc, Scheduler: sched, Store: store, Endpoint: monEP})
	rt := appscript.NewRuntime(svc, sched, store)
	f := &fixture{clock: clock, sched: sched, svc: svc, space: space, store: store, sink: sink, mon: mon, rt: rt}
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
	ep, err := f.space.FromCity(city)
	if err != nil {
		t.Fatal(err)
	}
	ep.UserAgent = ua
	se, err := f.svc.Login("h1@honeymail.example", "pw1", f.svc.NewCookie(), ep)
	if err != nil {
		t.Fatal(err)
	}
	return se
}

func TestScrapeCollectsAttackerAccesses(t *testing.T) {
	f := newFixture(t)
	f.attackerLogin(t, "Bucharest", "")
	f.mon.ScrapeAll(f.clock.Now())
	ds := f.mon.Dataset()
	if len(ds) != 1 {
		t.Fatalf("dataset = %d records, want 1", len(ds))
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
	ds := f.mon.Dataset()
	if len(ds) != 1 || ds[0].City != "Tokyo" {
		t.Fatalf("dataset after self-filter = %+v", ds)
	}
}

func TestPeriodicScrapingTracksDurations(t *testing.T) {
	f := newFixture(t)
	f.mon.Start(30 * time.Minute)
	se := f.attackerLogin(t, "Kyiv", "")
	f.sched.RunFor(2 * time.Hour)
	se.Search("password") // attacker returns mid-window
	f.sched.RunFor(2 * time.Hour)
	ds := f.mon.Dataset()
	if len(ds) != 1 {
		t.Fatalf("dataset = %d", len(ds))
	}
	if d := ds[0].Duration(); d < 2*time.Hour-time.Minute {
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
	ds := f.mon.Dataset()
	if len(ds) != 1 || ds[0].City != "Minsk" {
		t.Fatalf("dataset = %+v", ds)
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
	f.mon.Start(10 * time.Minute)
	f.mon.Stop()
	f.attackerLogin(t, "Cairo", "")
	f.sched.RunFor(2 * time.Hour)
	if ds := f.mon.Dataset(); len(ds) != 0 {
		t.Fatalf("dataset after Stop = %d records", len(ds))
	}
	// Stop is idempotent.
	f.mon.Stop()
}

// countingSink counts notifications without retaining them, so the
// allocation check below measures the store alone.
type countingSink struct{ notifications int }

func (c *countingSink) ObserveAccess(AccessRecord)                 {}
func (c *countingSink) ObserveNotification(appscript.Notification) { c.notifications++ }
func (c *countingSink) ObserveFailure(ScrapeFailure)               {}

// TestNotifyRetainsNothing: the store forwards each notification to
// the sink exactly once and keeps no log of its own — Notify does not
// allocate, with or without a sink.
func TestNotifyRetainsNothing(t *testing.T) {
	store := NewStore()
	n := appscript.Notification{Account: "h1@honeymail.example", Kind: appscript.NoteHeartbeat}
	if allocs := testing.AllocsPerRun(100, func() { store.Notify(n) }); allocs != 0 {
		t.Fatalf("Notify without a sink allocated %v times per call", allocs)
	}
	sink := &countingSink{}
	store.SetSink(sink)
	if allocs := testing.AllocsPerRun(100, func() { store.Notify(n) }); allocs != 0 {
		t.Fatalf("Notify with a sink allocated %v times per call", allocs)
	}
	if sink.notifications != 101 { // AllocsPerRun adds one warm-up call
		t.Fatalf("sink saw %d notifications, want 101", sink.notifications)
	}
}

func TestDatasetDeterministicOrder(t *testing.T) {
	f := newFixture(t)
	f.svc.CreateAccount("h2@honeymail.example", "pw2", "Honey Two")
	f.mon.Track("h2@honeymail.example", "pw2")
	f.attackerLogin(t, "Lagos", "")
	ep, _ := f.space.FromCity("Hanoi")
	if _, err := f.svc.Login("h2@honeymail.example", "pw2", f.svc.NewCookie(), ep); err != nil {
		t.Fatal(err)
	}
	f.mon.ScrapeAll(f.clock.Now())
	a := f.mon.Dataset()
	b := f.mon.Dataset()
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("dataset sizes = %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].Account != b[i].Account || a[i].Cookie != b[i].Cookie {
			t.Fatal("Dataset order not deterministic")
		}
	}
}
