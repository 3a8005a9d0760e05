package webmail

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/simtime"
)

var epoch = time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)

type fixture struct {
	clock *simtime.Clock
	sched *simtime.Scheduler
	svc   *Service
	space *netsim.AddressSpace
	jar   *netsim.CookieJar // the test's browsers
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	clock := simtime.NewClock(epoch)
	cfg.Clock = clock
	f := &fixture{
		clock: clock,
		sched: simtime.NewScheduler(clock),
		svc:   NewService(cfg),
		space: netsim.NewAddressSpace(rng.New(7), geo.Default()),
		jar:   netsim.NewCookieJar(),
	}
	if err := f.svc.CreateAccount("alice@honeymail.example", "hunter2", "Alice Smith"); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *fixture) endpoint(t *testing.T, city, ua string) netsim.Endpoint {
	t.Helper()
	ep, err := f.space.FromCity(city)
	if err != nil {
		t.Fatal(err)
	}
	ep.UserAgent = ua
	return ep
}

func (f *fixture) login(t *testing.T) *Session {
	t.Helper()
	se, err := f.svc.Login("alice@honeymail.example", "hunter2", f.jar.Issue(), f.endpoint(t, "London", ""))
	if err != nil {
		t.Fatal(err)
	}
	return se
}

func TestCreateAccountDuplicate(t *testing.T) {
	f := newFixture(t, Config{})
	if err := f.svc.CreateAccount("alice@honeymail.example", "x", "A"); !errors.Is(err, ErrAccountExists) {
		t.Fatalf("err = %v, want ErrAccountExists", err)
	}
}

func TestLoginChecksCredentials(t *testing.T) {
	f := newFixture(t, Config{})
	if _, err := f.svc.Login("nobody@x", "p", "", f.endpoint(t, "London", "")); !errors.Is(err, ErrNoSuchAccount) {
		t.Fatalf("err = %v", err)
	}
	if _, err := f.svc.Login("alice@honeymail.example", "wrong", "", f.endpoint(t, "London", "")); !errors.Is(err, ErrBadPassword) {
		t.Fatalf("err = %v", err)
	}
}

func TestLoginRecordsAccess(t *testing.T) {
	f := newFixture(t, Config{})
	ep := f.endpoint(t, "Paris", netsim.UserAgentFor(rng.New(1), netsim.BrowserFirefox))
	cookie := f.jar.Issue()
	if _, err := f.svc.Login("alice@honeymail.example", "hunter2", cookie, ep); err != nil {
		t.Fatal(err)
	}
	page, err := f.svc.ActivityPage("alice@honeymail.example")
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 1 {
		t.Fatalf("activity rows = %d, want 1", len(page))
	}
	acc := page[0]
	if acc.Cookie != cookie || acc.City != "Paris" || acc.Country != "France" {
		t.Fatalf("access = %+v", acc)
	}
	if acc.Browser != netsim.BrowserFirefox || acc.Device != netsim.DeviceDesktop {
		t.Fatalf("fingerprint = %v/%v", acc.Browser, acc.Device)
	}
	if acc.Visits != 1 || !acc.First.Equal(epoch) || !acc.Last.Equal(epoch) {
		t.Fatalf("timing = %+v", acc)
	}
}

func TestRepeatCookieUpdatesTLast(t *testing.T) {
	f := newFixture(t, Config{})
	cookie := f.jar.Issue()
	ep := f.endpoint(t, "Paris", "")
	if _, err := f.svc.Login("alice@honeymail.example", "hunter2", cookie, ep); err != nil {
		t.Fatal(err)
	}
	f.sched.RunFor(48 * time.Hour)
	if _, err := f.svc.Login("alice@honeymail.example", "hunter2", cookie, ep); err != nil {
		t.Fatal(err)
	}
	page, _ := f.svc.ActivityPage("alice@honeymail.example")
	if len(page) != 1 {
		t.Fatalf("repeat cookie created extra row: %d", len(page))
	}
	if got := page[0].Last.Sub(page[0].First); got != 48*time.Hour {
		t.Fatalf("tlast - t0 = %v, want 48h", got)
	}
	if page[0].Visits != 2 {
		t.Fatalf("visits = %d, want 2", page[0].Visits)
	}
}

func TestTorAccessHasNoLocation(t *testing.T) {
	f := newFixture(t, Config{})
	ep := f.space.TorExit()
	if _, err := f.svc.Login("alice@honeymail.example", "hunter2", f.jar.Issue(), ep); err != nil {
		t.Fatal(err)
	}
	page, _ := f.svc.ActivityPage("alice@honeymail.example")
	if page[0].City != "" || page[0].HasPoint {
		t.Fatalf("tor access should be locationless: %+v", page[0])
	}
	if page[0].Browser != netsim.BrowserUnknown || page[0].Device != netsim.DeviceUnknown {
		t.Fatalf("empty UA should fingerprint unknown: %+v", page[0])
	}
}

func TestSeedAndCounts(t *testing.T) {
	f := newFixture(t, Config{})
	for i := 0; i < 3; i++ {
		if _, err := f.svc.Seed("alice@honeymail.example", FolderInbox, "bob@x", "alice@honeymail.example", "s", "b", epoch.Add(-time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.svc.Seed("alice@honeymail.example", FolderSent, "alice@honeymail.example", "bob@x", "s", "b", epoch.Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}
	c, err := f.svc.Counts("alice@honeymail.example")
	if err != nil {
		t.Fatal(err)
	}
	if c.Inbox != 3 || c.Sent != 1 || c.Unread != 3 {
		t.Fatalf("counts = %+v", c)
	}
	// Seeding must not journal events (pre-leak population is not activity).
	if got := len(f.svc.Journal("alice@honeymail.example")); got != 0 {
		t.Fatalf("journal after seed = %d entries, want 0", got)
	}
}

func TestReadMarksAndJournals(t *testing.T) {
	f := newFixture(t, Config{})
	id, _ := f.svc.Seed("alice@honeymail.example", FolderInbox, "bob@x", "alice@honeymail.example", "payroll", "wire transfer details", epoch.Add(-time.Hour))
	se := f.login(t)
	m, err := se.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Read {
		t.Fatal("message not marked read")
	}
	// Second read of same message journals nothing new.
	if _, err := se.Read(id); err != nil {
		t.Fatal(err)
	}
	reads := 0
	for _, e := range f.svc.Journal("alice@honeymail.example") {
		if e.Kind == EventRead {
			reads++
		}
	}
	if reads != 1 {
		t.Fatalf("read events = %d, want 1", reads)
	}
}

func TestStar(t *testing.T) {
	f := newFixture(t, Config{})
	id, _ := f.svc.Seed("alice@honeymail.example", FolderInbox, "b@x", "alice@honeymail.example", "s", "b", epoch)
	se := f.login(t)
	if err := se.Star(id); err != nil {
		t.Fatal(err)
	}
	c, _ := f.svc.Counts("alice@honeymail.example")
	if c.Starred != 1 {
		t.Fatalf("starred = %d", c.Starred)
	}
}

func TestSearchMatchesAndLogs(t *testing.T) {
	f := newFixture(t, Config{})
	f.svc.Seed("alice@honeymail.example", FolderInbox, "b@x", "a", "Wire transfer confirmation", "the PAYMENT settled", epoch)
	f.svc.Seed("alice@honeymail.example", FolderInbox, "b@x", "a", "lunch", "sandwiches", epoch)
	se := f.login(t)
	hits, err := se.Search("payment transfer")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Subject != "Wire transfer confirmation" {
		t.Fatalf("hits = %+v", hits)
	}
	if log := f.svc.SearchLog("alice@honeymail.example"); len(log) != 1 || log[0] != "payment transfer" {
		t.Fatalf("search log = %v", log)
	}
	if none, _ := se.Search("bitcoin"); len(none) != 0 {
		t.Fatalf("unexpected hits: %v", none)
	}
}

func TestDraftLifecycle(t *testing.T) {
	f := newFixture(t, Config{})
	se := f.login(t)
	id, err := se.CreateDraft("victim@x", "hello", "first version")
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := f.svc.Snapshot("alice@honeymail.example")
	if snap.Drafts[id] != "first version" {
		t.Fatalf("draft body = %q", snap.Drafts[id])
	}
	// A draft persists in Drafts and is never sent.
	c, _ := f.svc.Counts("alice@honeymail.example")
	if c.Drafts != 1 || c.Sent != 0 {
		t.Fatalf("counts after draft = %+v", c)
	}
	drafts, err := se.List(FolderDrafts)
	if err != nil {
		t.Fatal(err)
	}
	if len(drafts) != 1 || drafts[0].ID != id || drafts[0].To != "victim@x" || drafts[0].Body != "first version" {
		t.Fatalf("drafts folder = %+v", drafts)
	}
}

func TestSendUsesSendFromOverride(t *testing.T) {
	var gotFrom, gotTo string
	out := OutboundFunc(func(from, to, subject, body string, at time.Time) error {
		gotFrom, gotTo = from, to
		return nil
	})
	f := newFixture(t, Config{Outbound: out})
	if err := f.svc.SetSendFrom("alice@honeymail.example", "sink@sinkhole.example"); err != nil {
		t.Fatal(err)
	}
	se := f.login(t)
	if _, err := se.Send("victim@real.example", "hi", "body"); err != nil {
		t.Fatal(err)
	}
	if gotFrom != "sink@sinkhole.example" || gotTo != "victim@real.example" {
		t.Fatalf("delivered %s -> %s", gotFrom, gotTo)
	}
}

// partitionEndpoint is the network identity the partition tests log
// in from.
func partitionEndpoint(t *testing.T) netsim.Endpoint {
	t.Helper()
	ep, err := netsim.NewAddressSpace(rng.New(11), geo.Default()).FromCity("Paris")
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// TestPartitionClockBinding: the platform is partitioned one Service
// per engine shard, and two partitions on two clocks each stamp their
// events with their own time.
func TestPartitionClockBinding(t *testing.T) {
	ep := partitionEndpoint(t)
	for i, lead := range []time.Duration{0, 72 * time.Hour} {
		svc := NewService(Config{Clock: simtime.NewClock(epoch.Add(lead))})
		addr := fmt.Sprintf("u%d@x.example", i)
		if err := svc.CreateAccount(addr, "pw", "U"); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Login(addr, "pw", "", ep); err != nil {
			t.Fatal(err)
		}
		rows, err := svc.ActivityPage(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !rows[0].First.Equal(epoch.Add(lead)) {
			t.Fatalf("partition %d stamped %v, want %v", i, rows[0].First, epoch.Add(lead))
		}
	}
}

// TestPartitionOutboundBinding: two partitions with two outbounds, as
// two engine shards run them, each deliver sent mail into their own
// sink at their own clock's time.
func TestPartitionOutboundBinding(t *testing.T) {
	ep := partitionEndpoint(t)
	var sent [2][]string // recipients each partition's outbound received
	for i, lead := range []time.Duration{0, 72 * time.Hour} {
		i := i
		svc := NewService(Config{
			Clock: simtime.NewClock(epoch.Add(lead)),
			Outbound: OutboundFunc(func(from, to, subject, body string, at time.Time) error {
				if !at.Equal(epoch.Add(lead)) {
					t.Errorf("partition %d delivered at %v, want %v", i, at, epoch.Add(lead))
				}
				sent[i] = append(sent[i], to)
				return nil
			}),
		})
		addr := fmt.Sprintf("u%d@x.example", i)
		if err := svc.CreateAccount(addr, "pw", "U"); err != nil {
			t.Fatal(err)
		}
		se, err := svc.Login(addr, "pw", "", ep)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := se.Send(fmt.Sprintf("victim%d@elsewhere.example", i), "hi", "body"); err != nil {
			t.Fatal(err)
		}
	}
	for i, to := range sent {
		if want := fmt.Sprintf("victim%d@elsewhere.example", i); len(to) != 1 || to[0] != want {
			t.Fatalf("partition %d outbound received %q, want [%s]", i, to, want)
		}
	}
}

func TestChangePasswordInvalidatesOtherSessions(t *testing.T) {
	f := newFixture(t, Config{})
	monitor := f.login(t)
	hijacker := f.login(t)
	if err := hijacker.ChangePassword("owned"); err != nil {
		t.Fatal(err)
	}
	if _, err := monitor.List(FolderInbox); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("old session err = %v, want ErrSessionExpired", err)
	}
	// Hijacker's own session survives.
	if _, err := hijacker.List(FolderInbox); err != nil {
		t.Fatal(err)
	}
	// Old password no longer works; new one does.
	if _, err := f.svc.Login("alice@honeymail.example", "hunter2", "", f.endpoint(t, "London", "")); !errors.Is(err, ErrBadPassword) {
		t.Fatalf("old password err = %v", err)
	}
	if _, err := f.svc.Login("alice@honeymail.example", "owned", "", f.endpoint(t, "London", "")); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotSurvivesPasswordChangeAndSuspension(t *testing.T) {
	// §4.2: "even after losing control of the accounts, our monitoring
	// scripts embedded in the accounts keep running".
	f := newFixture(t, Config{})
	id, _ := f.svc.Seed("alice@honeymail.example", FolderInbox, "b@x", "a", "s", "b", epoch)
	se := f.login(t)
	se.Read(id)
	se.ChangePassword("owned")
	f.svc.Suspend("alice@honeymail.example", "test")
	snap, err := f.svc.Snapshot("alice@honeymail.example")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Read) != 1 || snap.Read[0] != id {
		t.Fatalf("snapshot read = %v", snap.Read)
	}
}

func TestSuspensionBlocksLoginAndOps(t *testing.T) {
	f := newFixture(t, Config{})
	se := f.login(t)
	f.svc.Suspend("alice@honeymail.example", "abuse")
	if !f.svc.Suspended("alice@honeymail.example") || f.svc.SuspendedCount() != 1 {
		t.Fatal("suspension not recorded")
	}
	if _, err := f.svc.Login("alice@honeymail.example", "hunter2", "", f.endpoint(t, "London", "")); !errors.Is(err, ErrSuspended) {
		t.Fatalf("login err = %v", err)
	}
	if _, err := se.List(FolderInbox); !errors.Is(err, ErrSuspended) {
		t.Fatalf("op err = %v", err)
	}
	// Double-suspend journals once.
	f.svc.Suspend("alice@honeymail.example", "again")
	n := 0
	for _, e := range f.svc.Journal("alice@honeymail.example") {
		if e.Kind == EventSuspend {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("suspend events = %d, want 1", n)
	}
}

func TestAbuseDetectionSuspendsSpammer(t *testing.T) {
	f := newFixture(t, Config{})
	se := f.login(t)
	for i := 0; i < maxSendsPerWindow; i++ {
		if _, err := se.Send("victim@x", "spam", "buy now"); err != nil {
			t.Fatalf("send %d: %v", i+1, err)
		}
	}
	if f.svc.Suspended("alice@honeymail.example") {
		t.Fatalf("suspended at %d sends within the window", maxSendsPerWindow)
	}
	if _, err := se.Send("victim@x", "spam", "buy now"); err != nil {
		t.Fatal(err)
	}
	if !f.svc.Suspended("alice@honeymail.example") {
		t.Fatalf("spammer not suspended at %d sends", maxSendsPerWindow+1)
	}
	if _, err := se.Send("victim@x", "spam", "buy now"); !errors.Is(err, ErrSuspended) {
		t.Fatalf("send after suspension: %v", err)
	}
}

func TestAbuseFanOutDetection(t *testing.T) {
	f := newFixture(t, Config{})
	se := f.login(t)
	send := func(i int) {
		if _, err := se.Send(fmt.Sprintf("v%d@victims.example", i), "s", "b"); err != nil {
			t.Fatalf("send %d: %v", i+1, err)
		}
	}
	for i := 0; i < maxRecipientsPerWindow; i++ {
		send(i)
	}
	if f.svc.Suspended("alice@honeymail.example") {
		t.Fatalf("suspended at %d distinct recipients", maxRecipientsPerWindow)
	}
	send(maxRecipientsPerWindow)
	if !f.svc.Suspended("alice@honeymail.example") {
		t.Fatalf("fan-out spammer not suspended at %d distinct recipients", maxRecipientsPerWindow+1)
	}
}

func TestAbuseWindowSlides(t *testing.T) {
	f := newFixture(t, Config{})
	se := f.login(t)
	for day := 0; day < 5; day++ {
		for i := 0; i < maxSendsPerWindow; i++ {
			if _, err := se.Send("friend@x", "s", "b"); err != nil {
				t.Fatalf("steady sender suspended on day %d: %v", day, err)
			}
		}
		f.sched.RunFor(24 * time.Hour)
	}
	if f.svc.Suspended("alice@honeymail.example") {
		t.Fatal("steady sender should not be suspended")
	}
}

func TestLoginRiskAblation(t *testing.T) {
	f := newFixture(t, Config{LoginRisk: LoginRiskConfig{BlockTor: true, BlockProxies: true}})
	// Tor blocked.
	if _, err := f.svc.Login("alice@honeymail.example", "hunter2", "", f.space.TorExit()); !errors.Is(err, ErrLoginBlocked) {
		t.Fatalf("tor err = %v", err)
	}
	// Open proxy blocked.
	if _, err := f.svc.Login("alice@honeymail.example", "hunter2", "", f.space.OpenProxy()); !errors.Is(err, ErrLoginBlocked) {
		t.Fatalf("proxy err = %v", err)
	}
	// A geolocated city is allowed, however far away.
	if _, err := f.svc.Login("alice@honeymail.example", "hunter2", "", f.endpoint(t, "Tokyo", "")); err != nil {
		t.Fatalf("city err = %v", err)
	}
	blocked := 0
	for _, e := range f.svc.Journal("alice@honeymail.example") {
		if e.Kind == EventLoginBlocked {
			blocked++
		}
	}
	if blocked != 2 {
		t.Fatalf("blocked events = %d, want 2", blocked)
	}
	// Each flag filters only its own origin; with none set, the filter
	// is off.
	torOnly := newFixture(t, Config{LoginRisk: LoginRiskConfig{BlockTor: true}})
	if _, err := torOnly.svc.Login("alice@honeymail.example", "hunter2", "", torOnly.space.OpenProxy()); err != nil {
		t.Fatalf("proxy blocked by a Tor-only filter: %v", err)
	}
	open := newFixture(t, Config{})
	if _, err := open.svc.Login("alice@honeymail.example", "hunter2", "", open.space.TorExit()); err != nil {
		t.Fatalf("tor blocked with no filter set: %v", err)
	}
}

func TestDeliverInbound(t *testing.T) {
	f := newFixture(t, Config{})
	id, err := f.svc.DeliverInbound("alice@honeymail.example", "noreply@forum.example", "Confirm your registration", "click here")
	if err != nil {
		t.Fatal(err)
	}
	se := f.login(t)
	m, err := se.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if m.From != "noreply@forum.example" || m.Folder != FolderInbox {
		t.Fatalf("message = %+v", m)
	}
}

func TestDeleteMovesToTrashAndSearchSkipsIt(t *testing.T) {
	f := newFixture(t, Config{})
	id, _ := f.svc.Seed("alice@honeymail.example", FolderInbox, "b@x", "a", "bitcoin wallet", "keys inside", epoch)
	se := f.login(t)
	if err := se.Delete(id); err != nil {
		t.Fatal(err)
	}
	if hits, _ := se.Search("bitcoin"); len(hits) != 0 {
		t.Fatal("search returned trashed message")
	}
}

func TestListSortedChronologically(t *testing.T) {
	f := newFixture(t, Config{})
	f.svc.Seed("alice@honeymail.example", FolderInbox, "b@x", "a", "late", "b", epoch.Add(2*time.Hour))
	f.svc.Seed("alice@honeymail.example", FolderInbox, "b@x", "a", "early", "b", epoch.Add(time.Hour))
	se := f.login(t)
	msgs, err := se.List(FolderInbox)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 || msgs[0].Subject != "early" || msgs[1].Subject != "late" {
		t.Fatalf("order = %v, %v", msgs[0].Subject, msgs[1].Subject)
	}
}

func TestListNBoundsToNewest(t *testing.T) {
	f := newFixture(t, Config{})
	for i, subj := range []string{"third", "first", "second"} {
		// Seed out of date order so the limit is applied on the date
		// column, not on insertion order.
		offs := []time.Duration{3 * time.Hour, time.Hour, 2 * time.Hour}[i]
		f.svc.Seed("alice@honeymail.example", FolderInbox, "b@x", "a", subj, "b", epoch.Add(offs))
	}
	se := f.login(t)
	msgs, err := se.ListN(FolderInbox, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 || msgs[0].Subject != "second" || msgs[1].Subject != "third" {
		t.Fatalf("ListN(2) = %+v", msgs)
	}
	// A limit at or above the folder size, and 0, return everything.
	for _, limit := range []int{0, 3, 99} {
		msgs, err = se.ListN(FolderInbox, limit)
		if err != nil || len(msgs) != 3 {
			t.Fatalf("ListN(%d): %v, %d messages", limit, err, len(msgs))
		}
	}
}

// TestTouchMatchesList: a visit that touches the session leaves the
// account exactly as one that lists the inbox and drops the listing —
// the same activity rows, change counters and journal — and fails the
// same way for an expired session and a suspended account.
func TestTouchMatchesList(t *testing.T) {
	const addr = "alice@honeymail.example"
	type state struct {
		err             error
		page            []Access
		access, version uint64
		journal         int
	}
	run := func(visit func(*Session) error) []state {
		f := newFixture(t, Config{})
		if _, err := f.svc.Seed(addr, FolderInbox, "b@x", addr, "hello", "body", epoch.Add(-time.Hour)); err != nil {
			t.Fatal(err)
		}
		var out []state
		step := func(se *Session) {
			f.sched.RunFor(7 * time.Minute)
			err := visit(se)
			page, perr := f.svc.ActivityPage(addr)
			if perr != nil {
				t.Fatal(perr)
			}
			out = append(out, state{err, page, f.svc.AccessVersion(addr), f.svc.Version(addr), len(f.svc.Journal(addr))})
		}
		owner := f.login(t)
		step(owner)
		step(owner)
		hijacker := f.login(t)
		step(hijacker)
		if err := hijacker.ChangePassword("owned"); err != nil {
			t.Fatal(err)
		}
		step(owner)
		step(hijacker)
		if err := f.svc.Suspend(addr, "test"); err != nil {
			t.Fatal(err)
		}
		step(hijacker)
		return out
	}
	list := run(func(se *Session) error {
		_, err := se.List(FolderInbox)
		return err
	})
	touch := run((*Session).Touch)
	want := []error{nil, nil, nil, ErrSessionExpired, nil, ErrSuspended}
	for i, st := range touch {
		if !errors.Is(st.err, want[i]) {
			t.Errorf("step %d: Touch err = %v, want %v", i, st.err, want[i])
		}
	}
	if !reflect.DeepEqual(list, touch) {
		t.Fatalf("Touch diverged from List:\nlist  %+v\ntouch %+v", list, touch)
	}
	if !touch[1].page[0].Last.After(touch[0].page[0].Last) {
		t.Fatalf("Touch left tlast at %v", touch[1].page[0].Last)
	}
}

// TestAbuseRecordSendAllocs: a send below the recipient cap counts no
// recipients, since a window cannot hold more distinct recipients than
// records, and a count above it reuses one set. Either way a steady
// sender allocates nothing per send beyond the window's amortized
// growth.
func TestAbuseRecordSendAllocs(t *testing.T) {
	for _, c := range []struct {
		name       string
		perHour    int
		recipients int
		counted    bool // the window outgrows the recipient cap
	}{
		// ~90 records in the window, under both caps.
		{"below the cap", 90, 90, false},
		// ~105 records, over the recipient cap, but only 3 distinct.
		{"counted", 105, 3, true},
	} {
		d := newAbuseDetector(AbuseConfig{})
		a := &account{address: "alice@honeymail.example"}
		to := make([]string, c.recipients)
		for i := range to {
			to[i] = fmt.Sprintf("r%d@victims.example", i)
		}
		at := time.Date(2015, 7, 1, 0, 0, 0, 0, time.UTC)
		i := 0
		send := func() {
			if v := d.recordSend(a, to[i%len(to)], at); v != "" {
				t.Fatalf("%s: steady sender suspended: %s", c.name, v)
			}
			at = at.Add(time.Hour / time.Duration(c.perHour))
			i++
		}
		for k := 0; k < 500; k++ {
			send()
		}
		if got := len(a.sends) > maxRecipientsPerWindow; got != c.counted {
			t.Fatalf("%s: window holds %d sends against a recipient cap of %d", c.name, len(a.sends), maxRecipientsPerWindow)
		}
		if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
			t.Errorf("%s: %.0f allocs per send, want 0", c.name, allocs)
		}
	}
}
