package attacker

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/malnet"
	"repro/internal/netsim"
	"repro/internal/outlets"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/webmail"
)

// Class is the taxonomy bitmask of §4.2.
type Class uint8

const (
	// ClassCurious: logs in to check the credentials work, nothing more.
	ClassCurious Class = 1 << iota
	// ClassGoldDigger: searches the account for sensitive information.
	ClassGoldDigger
	// ClassSpammer: sends email from the account.
	ClassSpammer
	// ClassHijacker: changes the password, locking the owner out.
	ClassHijacker
)

// Has reports whether c includes the given class.
func (c Class) Has(x Class) bool { return c&x != 0 }

// String lists the classes, e.g. "gold-digger+hijacker".
func (c Class) String() string {
	if c == ClassCurious || c == 0 {
		return "curious"
	}
	var parts []string
	if c.Has(ClassGoldDigger) {
		parts = append(parts, "gold-digger")
	}
	if c.Has(ClassSpammer) {
		parts = append(parts, "spammer")
	}
	if c.Has(ClassHijacker) {
		parts = append(parts, "hijacker")
	}
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += "+"
		}
		out += p
	}
	return out
}

// OutletLabel tags which channel delivered the credential.
type OutletLabel string

// The three leak channels of Table 1.
const (
	OutletPaste        OutletLabel = "paste"
	OutletPasteRussian OutletLabel = "paste-ru"
	OutletForum        OutletLabel = "forum"
	OutletMalware      OutletLabel = "malware"
)

// Record is the ground-truth description of one spawned attacker
// (== one browser cookie == one "unique access" in the paper's
// counting). Analyses never see Records; tests use them to validate
// what the monitoring pipeline infers.
type Record struct {
	Cookie    string
	Account   string
	Outlet    OutletLabel
	Classes   Class
	Tor       bool
	Proxy     bool
	EmptyUA   bool
	Android   bool
	Malleable bool // chose to connect near the advertised location
	HomeCity  string
	FirstAt   time.Time
	Visits    int
}

// Config wires an Engine to the rest of the system.
type Config struct {
	Service   *webmail.Service
	Scheduler *simtime.Scheduler
	Space     *netsim.AddressSpace
	Blacklist *netsim.Blacklist
	Gazetteer *geo.Gazetteer
	Src       *rng.Source
	// Cookies issues this engine's browser cookies; required. The
	// honeynet gives each block's engine a prefixed jar, so cookie
	// values are unique across the fleet and do not depend on which
	// shard runs the block.
	Cookies *netsim.CookieJar
	// Populations overrides the per-channel attacker calibrations;
	// nil selects DefaultPopulations (the paper's marginals).
	Populations *Populations
}

// Engine spawns and drives attackers.
type Engine struct {
	svc   *webmail.Service
	sched *simtime.Scheduler
	space *netsim.AddressSpace
	bl    *netsim.Blacklist
	gaz   *geo.Gazetteer
	src   *rng.Source
	jar   *netsim.CookieJar
	pops  Populations

	mu           sync.Mutex
	records      []*Record
	madeNonTor   bool // the one non-Tor malware access (§4.5)
	resaleWaves  map[string][]time.Time
	passwords    map[string]string // latest known-good password per account
	blackmailers int
}

// New builds an Engine.
func New(cfg Config) *Engine {
	if cfg.Service == nil || cfg.Scheduler == nil || cfg.Space == nil ||
		cfg.Blacklist == nil || cfg.Gazetteer == nil || cfg.Src == nil || cfg.Cookies == nil {
		panic("attacker: every Config field but Populations is required")
	}
	pops := DefaultPopulations()
	if cfg.Populations != nil {
		pops = *cfg.Populations
	}
	return &Engine{
		svc:         cfg.Service,
		sched:       cfg.Scheduler,
		space:       cfg.Space,
		bl:          cfg.Blacklist,
		gaz:         cfg.Gazetteer,
		src:         cfg.Src,
		jar:         cfg.Cookies,
		pops:        pops,
		resaleWaves: make(map[string][]time.Time),
		passwords:   make(map[string]string),
	}
}

// Records returns the ground-truth attacker records, sorted by first
// activity.
func (e *Engine) Records() []Record {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Record, 0, len(e.records))
	for _, r := range e.records {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FirstAt.Before(out[j].FirstAt) })
	return out
}

// HandlePickup reacts to a credential found on a paste site or forum:
// it spawns one criminal with the outlet's population profile.
func (e *Engine) HandlePickup(p outlets.Pickup) {
	var pop Population
	var label OutletLabel
	switch {
	case p.Site.Kind == outlets.KindPaste && p.Site.Russian:
		pop, label = e.pops.PasteRussian, OutletPasteRussian
	case p.Site.Kind == outlets.KindPaste:
		pop, label = e.pops.Paste, OutletPaste
	default:
		pop, label = e.pops.Forum, OutletForum
	}
	var hint *outlets.LocationHint
	if p.Credential.Hint != nil {
		h := *p.Credential.Hint
		hint = &h
	}
	e.mu.Lock()
	if _, ok := e.passwords[p.Credential.Account]; !ok {
		e.passwords[p.Credential.Account] = p.Credential.Password
	}
	e.mu.Unlock()
	e.spawn(p.Credential.Account, p.Credential.Password, label, pop, hint, e.sched.Now())
}

// HandleExfil reacts to a credential reaching a malware C&C: the
// botmaster checks it after a lag, re-checks it repeatedly, and the
// credential later resurfaces in aggregation/resale waves (~day 30 and
// ~day 100 after the leak) as fresh gold-digger accesses (Figure 4).
func (e *Engine) HandleExfil(ex malnet.Exfiltration) {
	now := e.sched.Now()
	e.mu.Lock()
	if _, ok := e.passwords[ex.Credential.Account]; !ok {
		e.passwords[ex.Credential.Account] = ex.Credential.Password
	}
	e.mu.Unlock()

	// Botmaster's first check: exponential lag with a long mean, so
	// only ~40% of malware accesses land within 25 days (Figure 3).
	lag := time.Duration(e.src.Exponential(28 * float64(24*time.Hour)))
	e.sched.At(now.Add(lag), "botmaster-check", func(time.Time) {
		pop := e.pops.Malware
		pop.GoldDiggerProb = 0.15 // early checks are mostly curious (§4.3)
		e.spawn(ex.Credential.Account, ex.Credential.Password, OutletMalware, pop, nil, e.sched.Now())
	})

	// Aggregation / resale waves: day ~30 and ~100 after the leak,
	// jittered, each producing a new criminal of the gold-digger type
	// ("these bursts in accesses were of the 'gold digger' type",
	// §4.3).
	for _, base := range []float64{30, 100} {
		day := base + e.src.Normal(0, 3)
		if day < 1 {
			day = 1
		}
		at := now.Add(time.Duration(day * float64(24*time.Hour)))
		e.sched.At(at, "resale-wave", func(time.Time) {
			pop := e.pops.Malware
			pop.GoldDiggerProb = 0.9 // wave accesses assess value
			e.spawn(ex.Credential.Account, ex.Credential.Password, OutletMalware, pop, nil, e.sched.Now())
			e.mu.Lock()
			e.resaleWaves[ex.Credential.Account] = append(e.resaleWaves[ex.Credential.Account], e.sched.Now())
			e.mu.Unlock()
		})
	}
}

// ResaleWaves returns, per account, when resale-wave accesses fired.
func (e *Engine) ResaleWaves() map[string][]time.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string][]time.Time, len(e.resaleWaves))
	for k, v := range e.resaleWaves {
		out[k] = append([]time.Time(nil), v...)
	}
	return out
}

// spawn creates one attacker persona and schedules its sessions.
func (e *Engine) spawn(account, password string, label OutletLabel, pop Population, hint *outlets.LocationHint, at time.Time) {
	classes := ClassCurious
	if e.src.Bool(pop.GoldDiggerProb) {
		classes |= ClassGoldDigger
	}
	if e.src.Bool(pop.HijackerProb) {
		classes |= ClassHijacker
	}
	if e.src.Bool(pop.SpammerProb) {
		classes |= ClassSpammer
		// §4.2: "there was no access that behaved exclusively as
		// 'spammer'" — force a companion class.
		if !classes.Has(ClassGoldDigger) && !classes.Has(ClassHijacker) {
			if e.src.Bool(0.5) {
				classes |= ClassGoldDigger
			} else {
				classes |= ClassHijacker
			}
		}
	}

	rec := &Record{
		Account: account,
		Outlet:  label,
		Classes: classes,
		FirstAt: at,
	}
	ep := e.chooseEndpoint(rec, pop, hint)
	rec.Cookie = e.jar.Issue()

	e.mu.Lock()
	e.records = append(e.records, rec)
	e.mu.Unlock()

	visits := 1
	if e.src.Bool(pop.ReturnProb) {
		visits += 1 + e.src.Poisson(pop.ReturnVisitsMu)
	}
	visitAt := at
	for v := 0; v < visits; v++ {
		first := v == 0
		when := visitAt
		e.sched.At(when, fmt.Sprintf("attacker-visit:%s", label), func(time.Time) {
			e.runSession(rec, password, pop, ep, first)
		})
		gap := e.src.Exponential(pop.ReturnGapDays * float64(24*time.Hour))
		visitAt = visitAt.Add(time.Duration(gap))
	}
	rec.Visits = visits
}

// chooseEndpoint picks the attacker's network identity according to
// the population's sophistication traits.
func (e *Engine) chooseEndpoint(rec *Record, pop Population, hint *outlets.LocationHint) netsim.Endpoint {
	var ep netsim.Endpoint
	switch {
	case e.forceNonTor(rec):
		// The single non-Tor malware access (§4.5): an infected
		// residential machine, which also lands on the blacklist.
		city := rng.Pick(e.src, e.gaz.InRegion(geo.RegionEurope)).Name
		ep = e.mustCity(city)
		rec.HomeCity = city
		e.bl.Add(ep.Addr, "XBL/botnet")
	case e.src.Bool(pop.TorProb):
		ep = e.space.TorExit()
		rec.Tor = true
	case e.src.Bool(pop.ProxyProb):
		ep = e.space.OpenProxy()
		rec.Proxy = true
	default:
		city := e.chooseCity(rec, pop, hint)
		ep = e.mustCity(city)
		rec.HomeCity = city
		if e.src.Bool(pop.InfectedMachineProb) {
			e.bl.Add(ep.Addr, "XBL/botnet")
		}
	}
	if pop.EmptyUAProb >= 1 || e.src.Bool(pop.EmptyUAProb) {
		ep.UserAgent = ""
		rec.EmptyUA = true
	} else if e.src.Bool(pop.AndroidProb) {
		ep.UserAgent = netsim.UserAgentFor(e.src, netsim.BrowserAndroid)
		rec.Android = true
	} else if len(pop.Browsers) > 0 {
		ep.UserAgent = netsim.UserAgentFor(e.src, rng.Pick(e.src, pop.Browsers))
	} else {
		ep.UserAgent = ""
		rec.EmptyUA = true
	}
	return ep
}

// forceNonTor returns true exactly once, for a malware-outlet access.
func (e *Engine) forceNonTor(rec *Record) bool {
	if rec.Outlet != OutletMalware {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.madeNonTor {
		return false
	}
	e.madeNonTor = true
	return true
}

// chooseCity selects the attacker's login city: near the advertised
// midpoint for malleable criminals (§4.5), otherwise a home region.
func (e *Engine) chooseCity(rec *Record, pop Population, hint *outlets.LocationHint) string {
	if hint != nil && e.src.Bool(pop.LocationMalleability) {
		rec.Malleable = true
		var region geo.Region
		if hint.Region == "uk" {
			region = geo.RegionUK
		} else {
			region = geo.RegionUSMidwest
		}
		return rng.Pick(e.src, e.gaz.InRegion(region)).Name
	}
	weights := []rng.WeightedChoice[geo.Region]{
		{Item: geo.RegionEurope, Weight: 0.30},
		{Item: geo.RegionRussia, Weight: 0.14},
		{Item: geo.RegionAsia, Weight: 0.18},
		{Item: geo.RegionAfrica, Weight: 0.12},
		{Item: geo.RegionUS, Weight: 0.10},
		{Item: geo.RegionSouthAmerica, Weight: 0.08},
		{Item: geo.RegionNorthAmerica, Weight: 0.05},
		{Item: geo.RegionOceania, Weight: 0.03},
	}
	region := rng.Mixture(e.src, weights)
	return rng.Pick(e.src, e.gaz.InRegion(region)).Name
}

// mustCity allocates an endpoint for a known-good city.
func (e *Engine) mustCity(city string) netsim.Endpoint {
	ep, err := e.space.FromCity(city)
	if err != nil {
		panic(fmt.Sprintf("attacker: gazetteer city %q missing from address space: %v", city, err))
	}
	return ep
}

// runSession performs one visit: login plus class-dependent actions.
func (e *Engine) runSession(rec *Record, leakedPassword string, pop Population, ep netsim.Endpoint, first bool) {
	e.mu.Lock()
	password := e.passwords[rec.Account]
	if password == "" {
		password = leakedPassword
	}
	e.mu.Unlock()
	se, err := e.svc.Login(rec.Account, password, rec.Cookie, ep)
	if err != nil {
		return // suspended, or hijacked by someone else with a new password
	}

	// Keep the cookie's tlast honest: a short session "ends" minutes
	// after login (log-normal, Figure 1's short mode).
	minutes := e.src.LogNormal(logOf(pop.SessionMinutes), 0.9)
	endIn := time.Duration(minutes * float64(time.Minute))
	e.sched.After(endIn, "session-end", func(time.Time) {
		se.Touch() // errors fine (may be suspended)
	})

	if first || rec.Classes.Has(ClassGoldDigger) {
		se.Touch() // opens the inbox; nobody reads the listing
	}
	if rec.Classes.Has(ClassGoldDigger) {
		e.goldDig(se)
	}
	if rec.Classes.Has(ClassHijacker) && first {
		// Hijackers flip the password late in their visit, not at
		// login — the activity page stays scrapeable for a while,
		// which is why the paper could observe hijacker accesses at
		// all before losing the account (§4.2).
		delay := time.Duration(e.src.Uniform(1, 4) * float64(time.Hour))
		newPassword := fmt.Sprintf("hj-%06d", e.src.Intn(1000000))
		e.sched.After(delay, "hijack", func(time.Time) {
			if err := se.ChangePassword(newPassword); err == nil {
				e.mu.Lock()
				e.passwords[rec.Account] = newPassword
				e.mu.Unlock()
			}
		})
	}
	if rec.Classes.Has(ClassSpammer) {
		e.spam(se)
	}
	if e.src.Bool(pop.TosViolationProb) {
		// Other ToS violations (fraud sign-ups, abusive content, ...)
		// that platform enforcement catches out-of-band, with review
		// latency (§4.1: 42 accounts were blocked over the study).
		delay := time.Duration(e.src.Uniform(6, 72) * float64(time.Hour))
		e.sched.After(delay, "tos-enforcement", func(time.Time) {
			e.svc.Suspend(rec.Account, "tos-violation")
		})
	}
}

// goldDig searches for sensitive content and reads the hits (§4.6),
// plus any drafts lying around (how the blackmailer's abandoned drafts
// got read by later visitors, §4.7).
func (e *Engine) goldDig(se *webmail.Session) {
	queries := rng.PickN(e.src, goldKeywords, 2+e.src.Intn(3))
	for _, q := range queries {
		hits, err := se.Search(q)
		if err != nil {
			return
		}
		// Gold diggers skim: a couple of hits per query (the paper saw
		// 147 reads across 82 gold-digger accesses).
		read := 0
		for _, m := range hits {
			if read >= 2 {
				break
			}
			if !e.src.Bool(0.75) {
				continue
			}
			se.Read(m.ID)
			read++
			if e.src.Bool(0.15) {
				se.Star(m.ID)
			}
		}
	}
	if e.src.Bool(0.5) {
		drafts, err := se.List(webmail.FolderDrafts)
		if err == nil {
			for i, d := range drafts {
				if i >= 2 {
					break
				}
				se.Read(d.ID)
			}
		}
	}
}

// spam sends a burst of bulk mail (all sinkholed); bursts average
// ~100 messages (the paper's 845 sends over 8 spammer accesses) and
// large ones trip platform abuse detection, matching the suspensions
// the paper observed.
func (e *Engine) spam(se *webmail.Session) {
	n := 60 + e.src.Intn(120)
	for i := 0; i < n; i++ {
		to := fmt.Sprintf("user%04d@%s", e.src.Intn(10000), rng.Pick(e.src, victimDomains))
		subject := rng.Pick(e.src, spamSubjects)
		body := rng.Pick(e.src, spamBodies)
		if _, err := se.Send(to, subject, body); err != nil {
			return // suspended mid-burst
		}
	}
}

// logOf guards the log of a positive calibration constant.
func logOf(x float64) float64 {
	if x <= 0 {
		x = 1
	}
	return math.Log(x)
}
