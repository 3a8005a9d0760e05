package monitor

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/webmail"
)

// refMonitor is the scrape-everything reference for Monitor: on every
// tick it logs into every tracked account it is not locked out of,
// copies the whole activity page, and streams each row that differs
// from the copy it keeps of that (account, cookie). It has no version
// gate and no cursor. The gated Monitor must stream exactly what this
// one does, in the same order.
type refMonitor struct {
	svc      *webmail.Service
	wheel    *simtime.TriggerWheel
	sink     Sink
	endpoint netsim.Endpoint
	jar      *netsim.CookieJar
	tracked  map[string]*refTracked
}

type refTracked struct {
	account, password, cookie string
	failed, reported          bool
	rows                      map[string]webmail.Access // cookie -> last streamed row
}

func (r *refMonitor) Track(account, password string) {
	r.tracked[account] = &refTracked{account: account, password: password,
		cookie: r.jar.Issue(), rows: map[string]webmail.Access{}}
}

func (r *refMonitor) UpdatePassword(account, password string) {
	if t, ok := r.tracked[account]; ok {
		t.password = password
		t.failed = false
	}
}

func (r *refMonitor) Start(interval time.Duration) func() {
	return r.wheel.Every(interval, "ref-scrape", func(now time.Time) {
		accounts := make([]string, 0, len(r.tracked))
		for a := range r.tracked {
			accounts = append(accounts, a)
		}
		sort.Strings(accounts)
		for _, a := range accounts {
			r.scrape(r.tracked[a], now)
		}
	})
}

func (r *refMonitor) scrape(t *refTracked, now time.Time) {
	if t.failed {
		return
	}
	se, err := r.svc.Login(t.account, t.password, t.cookie, r.endpoint)
	if err != nil {
		switch err {
		case webmail.ErrBadPassword:
			r.lose(t, "password-changed", now)
		case webmail.ErrSuspended:
			r.lose(t, "suspended", now)
		default:
			r.lose(t, fmt.Sprintf("error: %v", err), now)
		}
		return
	}
	page, err := se.ActivityPage()
	if err != nil {
		r.lose(t, fmt.Sprintf("scrape: %v", err), now)
		return
	}
	for _, row := range page {
		row = shown(row)
		if row.Cookie == t.cookie || row.City == r.endpoint.City || t.rows[row.Cookie] == row {
			continue
		}
		t.rows[row.Cookie] = row
		r.sink.ObserveAccess(AccessRecord{Account: t.account, Access: row})
	}
}

func (r *refMonitor) lose(t *refTracked, reason string, now time.Time) {
	t.failed = true
	if !t.reported {
		t.reported = true
		r.sink.ObserveFailure(ScrapeFailure{Account: t.account, Time: now, Reason: reason})
	}
}

// shown is the row as the activity page displays it: every field but
// webmail's private change stamp, which differs between the two
// services because the reference's own logins bump it more often.
func shown(a webmail.Access) webmail.Access {
	return webmail.Access{
		Cookie: a.Cookie, First: a.First, Last: a.Last,
		IP: a.IP, City: a.City, Country: a.Country,
		Lat: a.Lat, Lon: a.Lon, HasPoint: a.HasPoint,
		UserAgent: a.UserAgent, Browser: a.Browser, Device: a.Device,
		Visits: a.Visits,
	}
}

// observation is one sink call: an access row or a failure.
type observation struct {
	access  AccessRecord
	failure ScrapeFailure
}

// streamRecorder keeps the sink calls in delivery order.
type streamRecorder struct{ calls []observation }

func (s *streamRecorder) ObserveAccess(a AccessRecord) {
	a.Access = shown(a.Access)
	s.calls = append(s.calls, observation{access: a})
}

func (s *streamRecorder) ObserveFailure(f ScrapeFailure) {
	s.calls = append(s.calls, observation{failure: f})
}

// scraper is what the scrape script drives: Monitor or refMonitor.
type scraper interface {
	Track(account, password string)
	UpdatePassword(account, password string)
	Start(interval time.Duration) func()
}

// scrapeOp is one step of the seeded scrape script.
type scrapeOp struct {
	at      time.Duration
	kind    string
	account int
	ep      netsim.Endpoint // origin of a login
	pick    int             // which earlier cookie or session to reuse
}

const (
	scrapeAccounts = 6 // the last one is the suspension story's alone
	scrapeWindow   = 6 * 24 * time.Hour
	scrapeInterval = time.Hour
)

func scrapeAddress(i int) string { return fmt.Sprintf("h%d@honeymail.example", i) }

// scrapeScript draws a seeded mix of attacker logins from several
// cities (the monitor's own city and Tor exits among them) and user
// agents, repeat visits by earlier cookies, mailbox activity that
// only advances a row's last access, hijacks, defender resets and
// suspensions. Days 2 and 4 are quiet, and a third of the instants
// sit on the scrape lattice, so activity also lands on the very
// instant a scrape tick fires. Every script also holds account 0's
// defender story — a login, a hijack, two logins during the lockout, a
// reset, a second hijack — and the suspension of an account that no
// random step touches.
func scrapeScript(seed int64) []scrapeOp {
	r := rand.New(rand.NewSource(seed))
	space := netsim.NewAddressSpace(rng.New(seed), geo.Default())
	cities := []string{"Bucharest", "Lagos", "Kyiv", "Hanoi", "Minsk", "Sao Paulo", "Manchester", "London"}
	agents := []string{"", "Mozilla/5.0 (Windows NT 6.1) Chrome/45.0", "Mozilla/5.0 (Macintosh) Safari/600.8", "curl/7.38"}
	origin := func() netsim.Endpoint {
		ep := space.TorExit()
		if r.Intn(6) != 0 {
			var err error
			if ep, err = space.FromCity(cities[r.Intn(len(cities))]); err != nil {
				panic(err)
			}
		}
		ep.UserAgent = agents[r.Intn(len(agents))]
		return ep
	}
	ops := []scrapeOp{
		{at: 30 * time.Minute, kind: "login", account: 0, ep: origin()},
		{at: 2 * time.Hour, kind: "hijack", account: 0, ep: origin()},
		{at: 3*time.Hour + 10*time.Minute, kind: "revisit", account: 0, ep: origin()},
		{at: 3*time.Hour + 40*time.Minute, kind: "login", account: 0, ep: origin()},
		{at: 5 * time.Hour, kind: "reset", account: 0},
		{at: 7*time.Hour + 20*time.Minute, kind: "login", account: 0, ep: origin()},
		{at: 9 * time.Hour, kind: "hijack", account: 0, ep: origin()},
		{at: 40 * time.Minute, kind: "login", account: scrapeAccounts - 1, ep: origin()},
		{at: 3 * time.Hour, kind: "revisit", account: scrapeAccounts - 1, ep: origin()},
		{at: 26 * time.Hour, kind: "suspend", account: scrapeAccounts - 1},
	}
	kinds := []string{
		"login", "login", "login", "login", "login", "login",
		"revisit", "revisit", "revisit", "revisit",
		"touch", "touch", "touch", "touch",
		"hijack", "reset", "reset",
	}
	for i := 0; i < 160; i++ {
		day := []int{0, 1, 3, 5}[r.Intn(4)] // days 2 and 4 stay quiet
		at := time.Duration(day)*24*time.Hour + time.Duration(r.Intn(24*60))*time.Minute
		if r.Intn(3) == 0 {
			at = at.Truncate(scrapeInterval)
		}
		kind := kinds[r.Intn(len(kinds))]
		if r.Intn(60) == 0 {
			kind = "suspend"
		}
		ops = append(ops, scrapeOp{at: at, kind: kind, account: r.Intn(scrapeAccounts - 1), ep: origin(), pick: r.Intn(8)})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	return ops
}

// runScrapes builds a fresh platform, tracks every account (and one
// that never exists), plays the scrape script on its scheduler and
// returns every sink call in delivery order.
func runScrapes(t *testing.T, ops []scrapeOp, build func(*webmail.Service, *simtime.TriggerWheel, Sink) scraper) []observation {
	t.Helper()
	clock := simtime.NewClock(epoch)
	sched := simtime.NewScheduler(clock)
	svc := webmail.NewService(webmail.Config{Clock: clock})
	jar := netsim.NewCookieJar()
	rec := &streamRecorder{}
	mon := build(svc, simtime.NewTriggerWheel(sched), rec)
	password := make([]string, scrapeAccounts) // what the attackers know
	cookies := make([][]string, scrapeAccounts)
	sessions := make([][]*webmail.Session, scrapeAccounts)
	for i := 0; i < scrapeAccounts; i++ {
		password[i] = "pw"
		if err := svc.CreateAccount(scrapeAddress(i), "pw", "Honey"); err != nil {
			t.Fatal(err)
		}
		mon.Track(scrapeAddress(i), "pw")
	}
	mon.Track("ghost@honeymail.example", "pw")
	mon.Start(scrapeInterval)
	login := func(i int, cookie string, ep netsim.Endpoint) *webmail.Session {
		se, err := svc.Login(scrapeAddress(i), password[i], cookie, ep)
		if err != nil {
			return nil
		}
		sessions[i] = append(sessions[i], se)
		return se
	}
	for n, op := range ops {
		n, op := n, op
		sched.At(epoch.Add(op.at), "scrape-script", func(time.Time) {
			i, addr := op.account, scrapeAddress(op.account)
			switch op.kind {
			case "login":
				cookie := jar.Issue()
				if login(i, cookie, op.ep) != nil {
					cookies[i] = append(cookies[i], cookie)
				}
			case "revisit":
				if len(cookies[i]) > 0 {
					login(i, cookies[i][op.pick%len(cookies[i])], op.ep)
				}
			case "touch":
				if len(sessions[i]) > 0 {
					sessions[i][op.pick%len(sessions[i])].Search("invoice")
				}
			case "hijack":
				cookie := jar.Issue()
				if se := login(i, cookie, op.ep); se != nil {
					cookies[i] = append(cookies[i], cookie)
					if se.ChangePassword(fmt.Sprintf("owned-%d", n)) == nil {
						password[i] = fmt.Sprintf("owned-%d", n)
					}
				}
			case "reset":
				// The defender rotates the password and hands the new one
				// to the monitor; the attackers learn it too, so activity
				// goes on after the reset.
				fresh := fmt.Sprintf("rs-%d", n)
				if svc.ResetPassword(addr, fresh) == nil {
					mon.UpdatePassword(addr, fresh)
					password[i] = fresh
				}
			case "suspend":
				svc.Suspend(addr, "abuse")
			}
		})
	}
	sched.RunFor(scrapeWindow)
	return rec.calls
}

func TestScrapeMatchesScrapeEverythingReference(t *testing.T) {
	monEP, err := netsim.NewAddressSpace(rng.New(1), geo.Default()).FromCity("London")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 8; seed++ {
		ops := scrapeScript(seed)
		got := runScrapes(t, ops, func(svc *webmail.Service, wheel *simtime.TriggerWheel, sink Sink) scraper {
			return New(Config{Service: svc, Wheel: wheel, Sink: sink, Endpoint: monEP, Cookies: netsim.NewCookieJarPrefixed("mon")})
		})
		want := runScrapes(t, ops, func(svc *webmail.Service, wheel *simtime.TriggerWheel, sink Sink) scraper {
			return &refMonitor{svc: svc, wheel: wheel, sink: sink, endpoint: monEP,
				jar: netsim.NewCookieJarPrefixed("mon"), tracked: map[string]*refTracked{}}
		})

		// The script must exercise what the gate could get wrong.
		reasons, streamed := map[string]bool{}, map[string]bool{}
		repeats, lost, resumed := 0, false, false
		for _, o := range want {
			if o.failure.Account != "" {
				reasons[o.failure.Reason] = true
				lost = lost || o.failure.Account == scrapeAddress(0)
				continue
			}
			key := o.access.Account + " " + o.access.Cookie
			if streamed[key] {
				repeats++
			}
			streamed[key] = true
			resumed = resumed || lost && o.access.Account == scrapeAddress(0)
		}
		for _, r := range []string{"password-changed", "suspended", "error: webmail: no such account"} {
			if !reasons[r] {
				t.Fatalf("seed %d: the script produced no %q failure; it exercises too little", seed, r)
			}
		}
		if len(streamed) < 20 || repeats < 10 || !resumed {
			t.Fatalf("seed %d: %d rows, %d repeats, resumed after the reset: %v; the script exercises too little",
				seed, len(streamed), repeats, resumed)
		}

		n := len(got)
		if len(want) < n {
			n = len(want)
		}
		for i := 0; i < n; i++ {
			if got[i] != want[i] {
				t.Fatalf("seed %d: sink call %d is %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d sink calls, reference %d", seed, len(got), len(want))
		}
	}
}
