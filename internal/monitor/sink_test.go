package monitor

import (
	"sort"
	"testing"

	"repro/internal/appscript"
)

// recordingSink captures everything the scraper streams, and — as the
// fixture's script notifier — every notification the scripts raise.
type recordingSink struct {
	accesses      []AccessRecord
	notifications []appscript.Notification
	failures      []ScrapeFailure
}

func (r *recordingSink) ObserveAccess(a AccessRecord)   { r.accesses = append(r.accesses, a) }
func (r *recordingSink) ObserveFailure(f ScrapeFailure) { r.failures = append(r.failures, f) }
func (r *recordingSink) Notify(n appscript.Notification) {
	r.notifications = append(r.notifications, n)
}

// latest folds the stream the way a receiver must — the newest row
// per (account, cookie) — and returns it ordered by account, then
// cookie.
func (r *recordingSink) latest() []AccessRecord {
	type key struct{ account, cookie string }
	newest := map[key]AccessRecord{}
	for _, a := range r.accesses {
		newest[key{a.Account, a.Cookie}] = a
	}
	out := make([]AccessRecord, 0, len(newest))
	for _, a := range newest {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Account != out[j].Account {
			return out[i].Account < out[j].Account
		}
		return out[i].Cookie < out[j].Cookie
	})
	return out
}

// The sink sees attacker accesses with the self-filter applied (no
// monitor cookies, no monitor-city rows), repeated rows only when they
// changed, and each failure once.
func TestSinkStreamsFilteredObservations(t *testing.T) {
	f := newFixture(t)
	sink := f.sink

	f.attackerLogin(t, "Bucharest", "Mozilla/5.0 Chrome")
	f.attackerLogin(t, "London", "") // monitor's own city: filtered (§4.1)
	f.mon.ScrapeAll(f.clock.Now())

	if len(sink.accesses) != 1 {
		t.Fatalf("sink saw %d accesses, want 1 (self-filtered): %+v", len(sink.accesses), sink.accesses)
	}
	if sink.accesses[0].City != "Bucharest" {
		t.Fatalf("sink access = %+v", sink.accesses[0])
	}

	// Unchanged rows are not re-streamed; a changed row is.
	before := len(sink.accesses)
	f.mon.ScrapeAll(f.clock.Now())
	if len(sink.accesses) != before {
		t.Fatalf("unchanged scrape re-streamed rows: %d -> %d", before, len(sink.accesses))
	}
	f.attackerLogin(t, "Bucharest", "Mozilla/5.0 Chrome") // fresh cookie: new row
	f.mon.ScrapeAll(f.clock.Now())
	if len(sink.accesses) != before+1 {
		t.Fatalf("changed scrape streamed %d new rows, want 1", len(sink.accesses)-before)
	}
	// The scraper's own login must never be streamed.
	for _, a := range sink.accesses {
		if a.City == "London" {
			t.Fatalf("self access streamed: %+v", a)
		}
	}

	// A hijack streams exactly one failure.
	hijacker := f.attackerLogin(t, "Bucharest", "")
	if err := hijacker.ChangePassword("stolen"); err != nil {
		t.Fatal(err)
	}
	f.mon.ScrapeAll(f.clock.Now())
	f.mon.ScrapeAll(f.clock.Now())
	if len(sink.failures) != 1 {
		t.Fatalf("sink saw %d failures, want 1: %+v", len(sink.failures), sink.failures)
	}
	if sink.failures[0].Reason != "password-changed" {
		t.Fatalf("failure = %+v", sink.failures[0])
	}
}
