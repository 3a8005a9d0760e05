package monitor

import (
	"strings"
	"testing"
	"time"

	"repro/internal/webmail"
)

// monitorLogins counts the monitor's own EventLogin entries in an
// account's ground-truth journal — the "journal noise" the version
// gate eliminates for quiet accounts.
func monitorLogins(f *fixture, account string) int {
	n := 0
	for _, ev := range f.svc.Journal(account) {
		if ev.Kind == webmail.EventLogin && strings.HasPrefix(ev.Cookie, monitorCookiePrefix) {
			n++
		}
	}
	return n
}

// A tracked account nobody touches is never logged into: the version
// gate answers "nothing changed" from the probe alone, so months of
// idle scrape ticks leave zero EventLogin noise in the journal.
func TestVersionGateSkipsIdleAccounts(t *testing.T) {
	f := newFixture(t)
	f.mon.Start(30 * time.Minute)
	f.sched.RunFor(48 * time.Hour) // 96 scrape ticks, all idle
	if got := monitorLogins(f, "h1@honeymail.example"); got != 0 {
		t.Fatalf("idle account journaled %d monitor logins, want 0", got)
	}
	if n := len(f.sink.accesses); n != 0 {
		t.Fatalf("idle account streamed %d rows", n)
	}
}

// Once an account goes quiet again, scraping stops with it: the gate
// reopens only for ticks that follow a scraper-visible change.
func TestVersionGateScrapesOnlyAfterActivity(t *testing.T) {
	f := newFixture(t)
	f.mon.Start(30 * time.Minute)
	f.sched.RunFor(2 * time.Hour) // idle: no scrapes
	if got := monitorLogins(f, "h1@honeymail.example"); got != 0 {
		t.Fatalf("pre-activity monitor logins = %d, want 0", got)
	}
	f.attackerLogin(t, "Bucharest", "")
	f.sched.RunFor(time.Hour) // ticks at +2h30m (scrape) and +3h (skip)
	after := monitorLogins(f, "h1@honeymail.example")
	if after != 1 {
		t.Fatalf("monitor logins after one burst = %d, want exactly 1 (one scrape, then quiet)", after)
	}
	f.sched.RunFor(24 * time.Hour) // long quiet stretch: no more logins
	if got := monitorLogins(f, "h1@honeymail.example"); got != after {
		t.Fatalf("quiet stretch added %d monitor logins", got-after)
	}
	ds := f.sink.latest()
	if len(ds) != 1 || ds[0].City != "Bucharest" {
		t.Fatalf("stream = %+v", ds)
	}
}

// The failure-visibility contract, half 1: a password change on an
// otherwise-idle account must open the gate, so the lockout is
// detected on the very next scrape tick — never skipped as stale.
func TestVersionGateDetectsPasswordChangeNextTick(t *testing.T) {
	f := newFixture(t)
	f.mon.Start(30 * time.Minute)
	se := f.attackerLogin(t, "Minsk", "")
	f.sched.RunFor(3 * time.Hour) // monitor scrapes the row, then idles
	base := monitorLogins(f, "h1@honeymail.example")
	if base != 1 {
		t.Fatalf("settled monitor logins = %d, want 1", base)
	}
	// Hijack between ticks: only the password changes.
	if err := se.ChangePassword("owned"); err != nil {
		t.Fatal(err)
	}
	f.sched.RunFor(time.Hour)
	fails := f.sink.failures
	if len(fails) != 1 || fails[0].Reason != "password-changed" {
		t.Fatalf("failures = %+v", fails)
	}
	// Detected at the first tick after the change (3h30m), not later.
	want := epoch.Add(3*time.Hour + 30*time.Minute)
	if !fails[0].Time.Equal(want) {
		t.Fatalf("failure at %v, want next tick %v", fails[0].Time, want)
	}
}

// The failure-visibility contract, half 2: a suspension on a fully
// idle account (no attacker ever logged in — the bump comes from the
// suspension itself) is detected on the next scrape tick.
func TestVersionGateDetectsSuspensionNextTick(t *testing.T) {
	f := newFixture(t)
	f.mon.Start(30 * time.Minute)
	f.sched.RunFor(2 * time.Hour) // idle: every tick skipped
	if err := f.svc.Suspend("h1@honeymail.example", "abuse"); err != nil {
		t.Fatal(err)
	}
	f.sched.RunFor(time.Hour)
	fails := f.sink.failures
	if len(fails) != 1 || fails[0].Reason != "suspended" {
		t.Fatalf("failures = %+v", fails)
	}
	want := epoch.Add(2*time.Hour + 30*time.Minute)
	if !fails[0].Time.Equal(want) {
		t.Fatalf("failure at %v, want next tick %v", fails[0].Time, want)
	}
}

// A skipped scrape streams nothing to the sink — the gate's skip path
// is invisible to the streaming classifier, not just cheap.
func TestVersionGateSkipStreamsNothing(t *testing.T) {
	f := newFixture(t)
	sink := f.sink
	f.attackerLogin(t, "Tokyo", "")
	f.mon.ScrapeAll(f.clock.Now())
	if len(sink.accesses) != 1 {
		t.Fatalf("first scrape streamed %d rows, want 1", len(sink.accesses))
	}
	for i := 0; i < 50; i++ {
		f.mon.ScrapeAll(f.clock.Now())
	}
	if len(sink.accesses) != 1 {
		t.Fatalf("skipped scrapes streamed %d extra rows", len(sink.accesses)-1)
	}
}
