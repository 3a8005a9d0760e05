package outlets

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/simtime"
)

// Kind distinguishes outlet families.
type Kind int

const (
	// KindPaste is a public paste site (pastebin-style).
	KindPaste Kind = iota
	// KindForum is an open underground forum.
	KindForum
)

// String returns the outlet family label.
func (k Kind) String() string {
	switch k {
	case KindPaste:
		return "paste"
	case KindForum:
		return "forum"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Site describes one leak venue and its audience dynamics.
type Site struct {
	Name string
	Kind Kind
	// Russian marks the low-traffic Russian paste sites whose honey
	// accounts went untouched for over two months (§4.3).
	Russian bool

	// PickupMeanDays is the mean of the exponential inter-arrival gap
	// between successive pickups of one posted credential.
	PickupMeanDays float64
	// PickupDelayDays is a fixed floor before the first pickup can
	// happen (dominant for the Russian sites).
	PickupDelayDays float64
	// MeanPickups is the Poisson mean of how many distinct visitors
	// pick up each credential during the experiment.
	MeanPickups float64
	// InquiryRate is (forums only) the per-credential-post probability
	// of receiving a buyer inquiry message.
	InquiryRate float64
}

// DefaultSites returns the outlets used in the paper's deployment.
// Arrival parameters are calibrated so the Figure 3 shape holds: 80%
// of paste pickups within 25 days, ~60% of forum pickups within 25
// days, Russian paste sites silent for 2+ months.
func DefaultSites() []*Site {
	return []*Site{
		{Name: "pastebin.example", Kind: KindPaste, PickupMeanDays: 8, MeanPickups: 4.3},
		{Name: "pastie.example", Kind: KindPaste, PickupMeanDays: 10, MeanPickups: 3.8},
		{Name: "paste-ru-1.example", Kind: KindPaste, Russian: true, PickupMeanDays: 40, PickupDelayDays: 65, MeanPickups: 0.7},
		{Name: "paste-ru-2.example", Kind: KindPaste, Russian: true, PickupMeanDays: 45, PickupDelayDays: 70, MeanPickups: 0.6},
		{Name: "offensivecommunity.example", Kind: KindForum, PickupMeanDays: 16, MeanPickups: 2.9, InquiryRate: 0.25},
		{Name: "bestblackhatforums.example", Kind: KindForum, PickupMeanDays: 14, MeanPickups: 3.1, InquiryRate: 0.3},
		{Name: "hackforums.example", Kind: KindForum, PickupMeanDays: 12, MeanPickups: 3.3, InquiryRate: 0.35},
		{Name: "blackhatworld.example", Kind: KindForum, PickupMeanDays: 15, MeanPickups: 2.8, InquiryRate: 0.2},
	}
}

// LocationHint is the decoy owner information optionally included in a
// leak post (username+password only, or with a location near one of
// the two midpoints).
type LocationHint struct {
	// Region is "uk" or "us".
	Region string
	// Midpoint is the advertised-locations average (London or Pontiac).
	Midpoint geo.Point
	// City is the specific advertised town for this credential.
	City string
}

// Credential is one leaked username/password pair plus optional decoy
// personal information.
type Credential struct {
	Account  string
	Password string
	Owner    string // decoy full name
	Hint     *LocationHint
}

// Pickup is one cybercriminal finding a posted credential.
type Pickup struct {
	Site       *Site
	Credential Credential
	PostedAt   time.Time
	At         time.Time
}

// Inquiry is a buyer message received on a forum thread (logged, never
// answered, per the paper's protocol).
type Inquiry struct {
	Site    *Site
	At      time.Time
	From    string
	Message string
}

// PickupHandler consumes pickup events.
type PickupHandler func(p Pickup)

// Sink observes every credential at the instant it is picked up —
// the moment it verifiably enters criminal circulation. This is the
// C3 ingestion hook: a compromised-credential-checking index fed from
// here can only know what a breach-monitoring service could know,
// which is what makes the defender's time-to-detection a fair race
// against the attacker's time-to-exploit.
type Sink func(c Credential, site string, at time.Time)

// Outlet wraps a Site with its arrival process.
type Outlet struct {
	site  *Site
	sched *simtime.Scheduler
	src   *rng.Source
	sink  Sink

	mu        sync.Mutex
	inquiries []Inquiry
}

// NewOutlet builds an outlet over a site definition.
func NewOutlet(site *Site, sched *simtime.Scheduler, src *rng.Source) *Outlet {
	if site == nil || sched == nil || src == nil {
		panic("outlets: NewOutlet requires site, scheduler and rng")
	}
	return &Outlet{site: site, sched: sched, src: src}
}

// Site returns the outlet's site definition.
func (o *Outlet) Site() *Site { return o.site }

// SetSink installs the pickup-time credential observer. Call before
// any Post; a nil sink disables observation. The sink runs inside
// pickup events on the outlet's scheduler and must not draw
// randomness — it is an observer, never an actor, so installing one
// cannot move any simulated outcome.
func (o *Outlet) SetSink(s Sink) { o.sink = s }

// Post publishes credentials on the outlet and schedules their future
// pickups, delivered via handler. It returns the number of pickups
// scheduled (useful for tests; real visitors are what matter).
func (o *Outlet) Post(creds []Credential, handler PickupHandler) int {
	if handler == nil {
		panic("outlets: Post requires a handler")
	}
	now := o.sched.Now()
	total := 0
	for _, cred := range creds {
		n := o.src.Poisson(o.site.MeanPickups)
		at := now.Add(time.Duration(o.site.PickupDelayDays * float64(24*time.Hour)))
		for i := 0; i < n; i++ {
			gap := o.src.Exponential(o.site.PickupMeanDays * float64(24*time.Hour))
			at = at.Add(time.Duration(gap))
			p := Pickup{Site: o.site, Credential: cred, PostedAt: now, At: at}
			o.sched.At(at, "pickup:"+o.site.Name, func(time.Time) {
				if o.sink != nil {
					o.sink(p.Credential, o.site.Name, p.At)
				}
				handler(p)
			})
			total++
		}
		if o.site.Kind == KindForum && o.src.Bool(o.site.InquiryRate) {
			// A prospective buyer asks for the full dataset some days
			// after the teaser post (Stone-Gross et al.'s trade
			// pattern, which the leak posts mimicked).
			delay := time.Duration(o.src.Exponential(5 * float64(24*time.Hour)))
			o.sched.At(now.Add(delay), "inquiry:"+o.site.Name, func(at time.Time) {
				o.mu.Lock()
				defer o.mu.Unlock()
				o.inquiries = append(o.inquiries, Inquiry{
					Site: o.site, At: at,
					From:    fmt.Sprintf("buyer%d@%s", len(o.inquiries)+1, o.site.Name),
					Message: "Interested in the full dump. How many accounts total and what is the price?",
				})
			})
		}
	}
	return total
}

// Inquiries returns the buyer messages logged so far.
func (o *Outlet) Inquiries() []Inquiry {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]Inquiry, len(o.inquiries))
	copy(out, o.inquiries)
	return out
}

// Registry holds the configured outlets by name.
type Registry struct {
	outlets map[string]*Outlet
}

// NewRegistry instantiates outlets for all sites.
func NewRegistry(sites []*Site, sched *simtime.Scheduler, src *rng.Source) *Registry {
	r := &Registry{outlets: make(map[string]*Outlet, len(sites))}
	for _, s := range sites {
		r.outlets[s.Name] = NewOutlet(s, sched, src.ForkNamed("outlet:"+s.Name))
	}
	return r
}

// SetSink installs one pickup-time credential observer on every
// outlet in the registry.
func (r *Registry) SetSink(s Sink) {
	for _, o := range r.outlets {
		o.SetSink(s)
	}
}

// ByKind returns outlets of one family, sorted by name. Russian paste
// sites are included when russian is true, excluded otherwise.
func (r *Registry) ByKind(kind Kind, russian bool) []*Outlet {
	var out []*Outlet
	for _, o := range r.outlets {
		if o.site.Kind == kind && o.site.Russian == russian {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].site.Name < out[j].site.Name })
	return out
}

// AllInquiries gathers inquiries across every outlet.
func (r *Registry) AllInquiries() []Inquiry {
	var out []Inquiry
	names := make([]string, 0, len(r.outlets))
	for n := range r.outlets {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out = append(out, r.outlets[n].Inquiries()...)
	}
	return out
}
