package webmail

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/simtime"
)

// dirtyFixture builds a service with one account and a way to mint
// endpoints and advance time.
type dirtyFixture struct {
	clock *simtime.Clock
	svc   *Service
	space *netsim.AddressSpace
}

func newDirtyFixture(t *testing.T) *dirtyFixture {
	t.Helper()
	clock := simtime.NewClock(time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC))
	svc := NewService(Config{Clock: clock})
	if err := svc.CreateAccount("d@honeymail.example", "pw", "Dirty"); err != nil {
		t.Fatal(err)
	}
	return &dirtyFixture{clock: clock, svc: svc, space: netsim.NewAddressSpace(rng.New(9), geo.Default())}
}

func (f *dirtyFixture) login(t *testing.T, city, cookie string) *Session {
	t.Helper()
	ep, err := f.space.FromCity(city)
	if err != nil {
		t.Fatal(err)
	}
	se, err := f.svc.Login("d@honeymail.example", "pw", cookie, ep)
	if err != nil {
		t.Fatal(err)
	}
	return se
}

func (f *dirtyFixture) advance(d time.Duration) {
	simtime.NewScheduler(f.clock).RunUntil(f.clock.Now().Add(d))
}

// AccessVersion must move on exactly the events a scraper could
// observe: row creation, row update (tlast), password change,
// suspension — and must NOT move on pure mailbox events.
func TestAccessVersionBumpsOnScraperVisibleEvents(t *testing.T) {
	f := newDirtyFixture(t)
	const acct = "d@honeymail.example"
	v0 := f.svc.AccessVersion(acct)
	if v0 != 0 {
		t.Fatalf("fresh account access version = %d", v0)
	}

	// Mailbox-only events leave it untouched.
	if _, err := f.svc.Seed(acct, FolderInbox, "a@x", acct, "s", "b", f.clock.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.svc.DeliverInbound(acct, "b@x", "s2", "b2"); err != nil {
		t.Fatal(err)
	}
	if got := f.svc.AccessVersion(acct); got != 0 {
		t.Fatalf("mailbox events bumped access version to %d", got)
	}
	if got := f.svc.Version(acct); got == 0 {
		t.Fatal("DeliverInbound did not bump the mailbox version")
	}

	// A login (new row) bumps.
	se := f.login(t, "Oslo", "")
	v1 := f.svc.AccessVersion(acct)
	if v1 == 0 {
		t.Fatal("login did not bump access version")
	}

	// A later session operation advances tlast — scraper-visible.
	f.advance(time.Hour)
	if _, err := se.List(FolderInbox); err != nil {
		t.Fatal(err)
	}
	v2 := f.svc.AccessVersion(acct)
	if v2 <= v1 {
		t.Fatalf("tlast advance did not bump: %d -> %d", v1, v2)
	}

	// A password change bumps even though no row changes.
	f.advance(time.Hour)
	if err := se.ChangePassword("owned"); err != nil {
		t.Fatal(err)
	}
	v3 := f.svc.AccessVersion(acct)
	if v3 <= v2 {
		t.Fatalf("password change did not bump: %d -> %d", v2, v3)
	}

	// A suspension bumps too.
	if err := f.svc.Suspend(acct, "abuse"); err != nil {
		t.Fatal(err)
	}
	if v4 := f.svc.AccessVersion(acct); v4 <= v3 {
		t.Fatalf("suspension did not bump: %d -> %d", v3, v4)
	}
}

// The probe mirrors the service accessors without locking.
func TestVersionProbe(t *testing.T) {
	f := newDirtyFixture(t)
	probe, err := f.svc.Probe("d@honeymail.example")
	if err != nil {
		t.Fatal(err)
	}
	if !probe.Valid() {
		t.Fatal("probe invalid")
	}
	if _, err := f.svc.Probe("ghost@x"); err == nil {
		t.Fatal("probe for missing account succeeded")
	}
	f.login(t, "Oslo", "")
	if probe.AccessVersion() != f.svc.AccessVersion("d@honeymail.example") {
		t.Fatal("probe access version diverges from service")
	}
	if (VersionProbe{}).Valid() {
		t.Fatal("zero probe claims validity")
	}
}

// An attached mark is set on exactly the changes that bump the mailbox
// version (reads, stars, sends, drafts, inbound mail) and on none of
// the others; a detached one is set by nothing.
func TestAttachMarkFollowsMailboxVersion(t *testing.T) {
	f := newDirtyFixture(t)
	const acct = "d@honeymail.example"
	sched := simtime.NewScheduler(f.clock)
	wheel := simtime.NewTriggerWheel(sched)
	scans := 0
	mark, _ := wheel.OnMark(time.Minute, "scan", func(time.Time) { scans++ })
	tick := func() int {
		before := scans
		sched.RunFor(time.Minute)
		return scans - before
	}
	id, _ := f.svc.Seed(acct, FolderInbox, "a@x", acct, "s", "b", f.clock.Now())
	se := f.login(t, "Oslo", "")
	se.Read(id)
	if v, err := f.svc.AttachMark(acct, mark); err != nil || v != 1 {
		t.Fatalf("AttachMark = %d, %v; want the version so far (1)", v, err)
	}
	if n := tick(); n != 0 {
		t.Fatalf("attaching fired %d scans; changes before the attach are the caller's to mark", n)
	}
	se.Search("s")
	se.ActivityPage()
	if n := tick(); n != 0 {
		t.Fatalf("search and activity page fired %d scans, want 0", n)
	}
	if _, err := se.Send("z@x", "s", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.svc.DeliverInbound(acct, "b@x", "s", "b"); err != nil {
		t.Fatal(err)
	}
	if n := tick(); n != 1 {
		t.Fatalf("a send and an inbound mail fired %d scans, want 1", n)
	}
	if _, err := f.svc.AttachMark(acct, nil); err != nil {
		t.Fatal(err)
	}
	se.Star(id)
	if n := tick(); n != 0 {
		t.Fatalf("detached mark fired %d scans", n)
	}
	if _, err := f.svc.AttachMark("ghost@x", mark); err == nil {
		t.Fatal("AttachMark on a missing account succeeded")
	}
}

// ActivitySince visits exactly the rows changed after the cursor, in
// page order, and its version chains into the next call's cursor.
func TestActivityPageSinceDeltas(t *testing.T) {
	f := newDirtyFixture(t)
	since := func(se *Session, cursor uint64) ([]Access, uint64, error) {
		var rows []Access
		v, err := se.ActivitySince(cursor, func(a Access) { rows = append(rows, a) })
		return rows, v, err
	}
	seA := f.login(t, "Oslo", "cookie-a")
	f.advance(time.Hour)
	f.login(t, "Lima", "cookie-b")

	full, v1, err := since(seA, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 2 || full[0].Cookie != "cookie-a" || full[1].Cookie != "cookie-b" {
		t.Fatalf("full page = %+v", full)
	}

	// Nothing changed: the delta is empty and the version is stable.
	delta, v2, err := since(seA, v1)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) != 0 || v2 != v1 {
		t.Fatalf("quiet delta = %d rows, version %d -> %d", len(delta), v1, v2)
	}

	// A third browser appears. The delta carries its row plus the
	// calling session's own row (its tlast advanced with the clock) —
	// exactly the self-row the monitor filters by cookie.
	f.advance(time.Hour)
	f.login(t, "Kyiv", "cookie-c")
	delta, v3, err := since(seA, v1)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) != 2 || delta[0].Cookie != "cookie-a" || delta[1].Cookie != "cookie-c" {
		t.Fatalf("delta after new login = %+v", delta)
	}
	if v3 <= v1 {
		t.Fatalf("version did not advance: %d -> %d", v1, v3)
	}
	// The returned version covers the caller's own bump: with no new
	// activity and no time passing, the next delta is empty.
	delta, _, err = since(seA, v3)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) != 0 {
		t.Fatalf("immediate re-scrape delta = %+v", delta)
	}

	// An old cookie returning updates its existing row in place: the
	// delta carries the refreshed row, not a duplicate.
	f.advance(time.Hour)
	f.login(t, "Lima", "cookie-b")
	delta, _, err = since(seA, v3)
	if err != nil {
		t.Fatal(err)
	}
	var other []Access
	for _, r := range delta {
		if r.Cookie != "cookie-a" { // drop the caller's self-row
			other = append(other, r)
		}
	}
	if len(other) != 1 || other[0].Cookie != "cookie-b" || other[0].Visits != 2 {
		t.Fatalf("returning-cookie delta = %+v", delta)
	}
}

// The insertion-sorted page matches the documented (First, Cookie)
// order, including same-instant ties.
func TestActivityPageOrderWithTies(t *testing.T) {
	f := newDirtyFixture(t)
	// Three logins at the same instant with descending cookie names.
	f.login(t, "Oslo", "z-cookie")
	f.login(t, "Lima", "a-cookie")
	f.login(t, "Kyiv", "m-cookie")
	f.advance(time.Hour)
	f.login(t, "Cairo", "b-cookie")
	page, err := f.svc.ActivityPage("d@honeymail.example")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a-cookie", "m-cookie", "z-cookie", "b-cookie"}
	if len(page) != len(want) {
		t.Fatalf("page = %d rows", len(page))
	}
	for i, w := range want {
		if page[i].Cookie != w {
			t.Fatalf("page[%d] = %s, want %s (ties sort by cookie, later First after)", i, page[i].Cookie, w)
		}
	}
}

// Search matches case-insensitively through the on-the-fly fold
// scan, including drafts created after the first search.
func TestSearchHaystackStaysFresh(t *testing.T) {
	f := newDirtyFixture(t)
	const acct = "d@honeymail.example"
	if _, err := f.svc.Seed(acct, FolderInbox, "a@x", acct, "Wire TRANSFER", "Payment Details", f.clock.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.svc.DeliverInbound(acct, "b@x", "Quota NOTICE", "too much COMPUTER time"); err != nil {
		t.Fatal(err)
	}
	se := f.login(t, "Oslo", "")
	for _, q := range []string{"wire transfer", "WIRE", "payment details", "computer TIME"} {
		hits, err := se.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != 1 {
			t.Fatalf("search %q = %d hits, want 1", q, len(hits))
		}
	}
	if hits, _ := se.Search("bitcoin"); len(hits) != 0 {
		t.Fatalf("search before the draft = %d hits, want 0", len(hits))
	}
	id, err := se.CreateDraft("v@x", "Ransom", "send BITCOIN now")
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := se.Search("bitcoin"); len(hits) != 1 || hits[0].ID != id {
		t.Fatalf("draft not searchable: %+v", hits)
	}
}
