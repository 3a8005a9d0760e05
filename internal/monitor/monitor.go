package monitor

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/webmail"
)

// AccessRecord is the monitor's view of one unique access (one
// cookie on one account).
type AccessRecord struct {
	Account string
	webmail.Access
}

// ScrapeFailure records the moment the scraper lost an account.
type ScrapeFailure struct {
	Account string
	Time    time.Time
	Reason  string // "password-changed" or "suspended"
}

// Sink receives the scraper's observations as they happen; it is the
// only way they leave the monitor. The streaming classification
// pipeline implements it: each shard's scraper feeds its shard's
// classifier while simulated time advances.
//
// Delivery contract: ObserveAccess carries an activity row that
// changed since the scraper last saw it, for one (account, cookie)
// pair, and may fire repeatedly as the row's Last advances — receivers
// keep the newest. The §4.1 self-filter (the monitor's own cookies,
// the infrastructure's city) is applied before delivery.
// ObserveFailure fires once per account, at the first lost login.
type Sink interface {
	ObserveAccess(AccessRecord)
	ObserveFailure(ScrapeFailure)
}

// tracked is the monitor's per-account scraping state. Its mutable
// fields are touched only from scrape ticks, which the owning
// scheduler serializes.
type tracked struct {
	account  string
	password string
	cookie   string // the scraper's own browser cookie
	// probe answers "did anything scraper-visible change?" with one
	// atomic load — the version gate that lets a quiet account cost
	// ~zero per scrape tick.
	probe webmail.VersionProbe
	// lastSeen is the account accessVersion after our previous scrape
	// (our own login included, so a quiet account compares equal on
	// the next tick). It doubles as the ActivitySince cursor.
	lastSeen uint64
	failed   bool // scraper locked out until UpdatePassword
	reported bool // a failure reached the sink; first failure only
}

// Monitor drives the activity-page scraping. It holds the original
// credentials of every honey account (a hijack makes them stale, which
// is exactly the visibility loss the paper describes).
type Monitor struct {
	svc   *webmail.Service
	wheel *simtime.TriggerWheel
	sink  Sink

	// endpoint is the monitoring infrastructure's network identity;
	// §4.1 removes every access from its city.
	endpoint netsim.Endpoint
	jar      *netsim.CookieJar

	mu      sync.Mutex
	tracked map[string]*tracked
	order   []*tracked // sorted by account; rebuilt after Track
	stale   bool       // order needs a rebuild

	// rowScratch is scrapeOne's reusable delta buffer; scrape ticks
	// are serialized by the owning scheduler.
	rowScratch []webmail.Access
}

// Config parameterises a Monitor. Every field but Endpoint is
// required.
type Config struct {
	Service *webmail.Service
	// Wheel batches the periodic scrape onto a shared trigger wheel
	// (the honeynet passes each shard's wheel so the scraper and the
	// Apps-Script runtime pool scheduler events).
	Wheel *simtime.TriggerWheel
	// Sink receives every observation the scraper makes.
	Sink Sink
	// Endpoint is the infrastructure's network identity; its city
	// becomes the self-filter city.
	Endpoint netsim.Endpoint
	// Cookies issues the scraper's own cookies. Sharded experiments
	// give each shard's monitor a prefixed jar so cookie values are
	// independent of cross-shard interleaving.
	Cookies *netsim.CookieJar
}

// New builds a Monitor.
func New(cfg Config) *Monitor {
	if cfg.Service == nil || cfg.Wheel == nil || cfg.Sink == nil || cfg.Cookies == nil {
		panic("monitor: Service, Wheel, Sink and Cookies are required")
	}
	return &Monitor{
		svc:      cfg.Service,
		wheel:    cfg.Wheel,
		sink:     cfg.Sink,
		endpoint: cfg.Endpoint,
		jar:      cfg.Cookies,
		tracked:  make(map[string]*tracked),
	}
}

// Track registers a honey account and the password that was leaked
// for it.
func (m *Monitor) Track(account, password string) {
	t := &tracked{account: account, password: password, cookie: m.jar.Issue()}
	// An invalid probe (account not on the platform yet) disables the
	// gate for this account; every tick then attempts the login and
	// records the failure.
	t.probe, _ = m.svc.Probe(account)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tracked[account] = t
	m.stale = true // invalidate the cached scrape order
}

// UpdatePassword rotates the monitor's stored credential for a
// tracked account — the defender's half of a password reset. The
// lockout clears so scraping resumes with the new password on the
// next tick, from the cursor of the last good scrape; a later lockout
// is not reported again, because failures are first-failure-only per
// account.
func (m *Monitor) UpdatePassword(account, newPassword string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t, ok := m.tracked[account]; ok {
		t.password = newPassword
		t.failed = false
	}
}

// Cursors returns every tracked account's scrape cursor — the
// account accessVersion after the scraper's previous visit. The
// snapshot engine serializes these and verifies that a resumed
// monitor re-tracks into identical cursor state.
func (m *Monitor) Cursors() map[string]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]uint64, len(m.tracked))
	for account, t := range m.tracked {
		out[account] = t.lastSeen
	}
	return out
}

// Start begins periodic scraping at the given interval; call the
// returned function to end it.
func (m *Monitor) Start(interval time.Duration) (stop func()) {
	return m.wheel.Every(interval, "monitor-scrape", m.ScrapeAll)
}

// ScrapeAll scrapes every tracked account once. The sorted account
// order is cached and only rebuilt after Track registers a new
// account, so steady-state ticks pay no per-tick sort.
func (m *Monitor) ScrapeAll(now time.Time) {
	m.mu.Lock()
	if m.stale {
		m.order = m.order[:0]
		for _, t := range m.tracked {
			m.order = append(m.order, t)
		}
		sort.Slice(m.order, func(i, j int) bool { return m.order[i].account < m.order[j].account })
		m.stale = false
	}
	order := m.order
	m.mu.Unlock()
	for _, t := range order {
		m.scrapeOne(t, now)
	}
}

// scrapeOne logs in with the monitor's credentials and streams the
// activity-page rows changed since the previous scrape. The version
// gate makes a quiet account cost one atomic load: when nothing
// scraper-visible changed since our last visit (lastSeen includes the
// bump from our own login), the Login+ActivitySince round trip — and
// its EventLogin journal noise — is skipped entirely. Password changes
// and suspensions bump the access version, so the gate opens and the
// failed login is reported on the first tick after the event. A row's
// version moves only when one of its fields does, so every row after
// the cursor is a change the sink has not seen.
func (m *Monitor) scrapeOne(t *tracked, now time.Time) {
	if t.failed {
		return
	}
	if t.probe.Valid() && t.probe.AccessVersion() == t.lastSeen {
		return
	}
	session, err := m.svc.Login(t.account, t.password, t.cookie, m.endpoint)
	if err != nil {
		switch err {
		case webmail.ErrBadPassword:
			m.lose(t, "password-changed", now)
		case webmail.ErrSuspended:
			m.lose(t, "suspended", now)
		default:
			m.lose(t, fmt.Sprintf("error: %v", err), now)
		}
		return
	}
	// Collect the self-filtered delta (§4.1: the monitor's cookie for
	// this account is the only one of its cookies that can appear on
	// this page) into a reusable buffer, and stream it once the
	// platform lock ActivitySince holds is released, so a sink never
	// runs under it and the steady-state scrape allocates nothing.
	m.rowScratch = m.rowScratch[:0]
	version, err := session.ActivitySince(t.lastSeen, func(a webmail.Access) {
		if a.Cookie != t.cookie && (m.endpoint.City == "" || a.City != m.endpoint.City) {
			m.rowScratch = append(m.rowScratch, a)
		}
	})
	if err != nil {
		m.lose(t, fmt.Sprintf("scrape: %v", err), now)
		return
	}
	t.lastSeen = version
	for _, r := range m.rowScratch {
		m.sink.ObserveAccess(AccessRecord{Account: t.account, Access: r})
	}
}

// lose locks the scraper out of t until UpdatePassword and reports
// the account's first failure to the sink.
func (m *Monitor) lose(t *tracked, reason string, now time.Time) {
	t.failed = true
	if t.reported {
		return
	}
	t.reported = true
	m.sink.ObserveFailure(ScrapeFailure{Account: t.account, Time: now, Reason: reason})
}
