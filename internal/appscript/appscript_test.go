package appscript

import (
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/webmail"
)

var epoch = time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)

// recorder is a thread-safe Notifier for tests.
type recorder struct {
	mu    sync.Mutex
	notes []Notification
}

func (r *recorder) Notify(n Notification) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, n)
}

func (r *recorder) byKind(k NotificationKind) []Notification {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Notification
	for _, n := range r.notes {
		if n.Kind == k {
			out = append(out, n)
		}
	}
	return out
}

type fixture struct {
	clock *simtime.Clock
	sched *simtime.Scheduler
	svc   *webmail.Service
	rt    *Runtime
	rec   *recorder
	space *netsim.AddressSpace
	jar   *netsim.CookieJar // the attackers' browsers
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	clock := simtime.NewClock(epoch)
	sched := simtime.NewScheduler(clock)
	svc := webmail.NewService(webmail.Config{Clock: clock})
	rec := &recorder{}
	f := &fixture{
		clock: clock, sched: sched, svc: svc, rec: rec,
		rt:    NewRuntime(svc, simtime.NewTriggerWheel(sched), rec),
		space: netsim.NewAddressSpace(rng.New(3), geo.Default()),
		jar:   netsim.NewCookieJar(),
	}
	if err := svc.CreateAccount("h1@honeymail.example", "pw", "Honey One"); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *fixture) session(t *testing.T) *webmail.Session {
	t.Helper()
	ep, err := f.space.FromCity("Moscow")
	if err != nil {
		t.Fatal(err)
	}
	se, err := f.svc.Login("h1@honeymail.example", "pw", f.jar.Issue(), ep)
	if err != nil {
		t.Fatal(err)
	}
	return se
}

func TestScanReportsReadSentStarred(t *testing.T) {
	f := newFixture(t)
	id, _ := f.svc.Seed("h1@honeymail.example", webmail.FolderInbox, "b@x", "h1", "payroll", "numbers", epoch.Add(-time.Hour))
	if err := f.rt.Install("h1@honeymail.example", Options{}); err != nil {
		t.Fatal(err)
	}
	se := f.session(t)
	se.Read(id)
	se.Star(id)
	se.Send("someone@x", "fwd", "payload")
	f.sched.RunFor(15 * time.Minute) // one scan cycle

	if got := f.rec.byKind(NoteRead); len(got) != 1 || got[0].Message != id {
		t.Fatalf("read notes = %+v", got)
	}
	if got := f.rec.byKind(NoteStarred); len(got) != 1 {
		t.Fatalf("star notes = %+v", got)
	}
	if got := f.rec.byKind(NoteSent); len(got) != 1 {
		t.Fatalf("sent notes = %+v", got)
	}
}

func TestScanReportsDraftCopies(t *testing.T) {
	f := newFixture(t)
	f.rt.Install("h1@honeymail.example", Options{})
	se := f.session(t)
	se.CreateDraft("victim@x", "pay up", "send 2 BTC to wallet")
	f.sched.RunFor(15 * time.Minute)
	drafts := f.rec.byKind(NoteDraft)
	if len(drafts) != 1 || drafts[0].Body != "send 2 BTC to wallet" {
		t.Fatalf("draft notes = %+v", drafts)
	}
	// A second draft is reported on its own; the first is not re-sent.
	id, _ := se.CreateDraft("victim@x", "pay up", "send 5 BTC to wallet")
	f.sched.RunFor(10 * time.Minute)
	drafts = f.rec.byKind(NoteDraft)
	if len(drafts) != 2 || drafts[1].Message != id || drafts[1].Body != "send 5 BTC to wallet" {
		t.Fatalf("draft notes after a second draft = %+v", drafts)
	}
}

func TestScanIdempotentWhenQuiet(t *testing.T) {
	f := newFixture(t)
	id, _ := f.svc.Seed("h1@honeymail.example", webmail.FolderInbox, "b@x", "h1", "s", "b", epoch.Add(-time.Hour))
	f.rt.Install("h1@honeymail.example", Options{})
	se := f.session(t)
	se.Read(id)
	f.sched.RunFor(2 * time.Hour) // 12 scans
	if got := f.rec.byKind(NoteRead); len(got) != 1 {
		t.Fatalf("quiet account produced %d read notes, want 1", len(got))
	}
}

func TestHeartbeatDaily(t *testing.T) {
	f := newFixture(t)
	f.rt.Install("h1@honeymail.example", Options{})
	f.sched.RunFor(72 * time.Hour)
	if got := len(f.rec.byKind(NoteHeartbeat)); got != 3 {
		t.Fatalf("heartbeats in 72h = %d, want 3", got)
	}
}

func TestScriptSurvivesPasswordChangeAndSuspension(t *testing.T) {
	f := newFixture(t)
	id, _ := f.svc.Seed("h1@honeymail.example", webmail.FolderInbox, "b@x", "h1", "s", "b", epoch.Add(-time.Hour))
	f.rt.Install("h1@honeymail.example", Options{})
	se := f.session(t)
	se.ChangePassword("owned")
	se.Read(id)
	f.svc.Suspend("h1@honeymail.example", "abuse")
	f.sched.RunFor(25 * time.Hour)
	if got := f.rec.byKind(NoteRead); len(got) != 1 {
		t.Fatalf("read notes after hijack+suspend = %d, want 1", len(got))
	}
	if got := f.rec.byKind(NoteHeartbeat); len(got) == 0 {
		t.Fatal("heartbeats stopped after suspension")
	}
}

func TestQuotaNoticeDeliveredToInbox(t *testing.T) {
	f := newFixture(t)
	f.rt.Install("h1@honeymail.example", Options{QuotaScans: 3})
	f.sched.RunFor(time.Hour) // 6 scans
	got := f.rec.byKind(NoteQuota)
	if len(got) != 1 {
		t.Fatalf("quota notes = %d, want exactly 1", len(got))
	}
	// The mailbox is quiet, so only the quota count drives the scans:
	// the third tick sends the notice.
	if want := epoch.Add(30 * time.Minute); !got[0].Time.Equal(want) {
		t.Fatalf("quota notice at %v, want the third tick (%v)", got[0].Time, want)
	}
	se := f.session(t)
	msgs, err := se.List(webmail.FolderInbox)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range msgs {
		if m.From == "apps-script-notifications@platform.example" {
			found = true
		}
	}
	if !found {
		t.Fatal("quota notice not delivered to account inbox")
	}
}

func TestReinstallReplacesScript(t *testing.T) {
	f := newFixture(t)
	f.rt.Install("h1@honeymail.example", Options{ScanInterval: 10 * time.Minute})
	f.rt.Install("h1@honeymail.example", Options{ScanInterval: time.Hour})
	id, _ := f.svc.Seed("h1@honeymail.example", webmail.FolderInbox, "b@x", "h1", "s", "b", epoch)
	se := f.session(t)
	se.Read(id)
	// Old 10-minute trigger must be dead: within 30 minutes nothing fires.
	f.sched.RunFor(30 * time.Minute)
	if got := f.rec.byKind(NoteRead); len(got) != 0 {
		t.Fatalf("old trigger still firing: %d notes", len(got))
	}
	f.sched.RunFor(time.Hour)
	if got := f.rec.byKind(NoteRead); len(got) != 1 {
		t.Fatalf("new trigger notes = %d, want 1", len(got))
	}
}

func TestInstallUnknownAccount(t *testing.T) {
	f := newFixture(t)
	if err := f.rt.Install("ghost@x", Options{}); err == nil {
		t.Fatal("install on missing account succeeded")
	}
}

func TestNotificationKindStrings(t *testing.T) {
	for k, want := range map[NotificationKind]string{
		NoteRead: "read", NoteSent: "sent", NoteStarred: "starred",
		NoteDraft: "draft", NoteHeartbeat: "heartbeat", NoteQuota: "quota",
	} {
		if k.String() != want {
			t.Fatalf("%v.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if NotificationKind(99).String() == "" {
		t.Fatal("unknown kind renders empty")
	}
}
