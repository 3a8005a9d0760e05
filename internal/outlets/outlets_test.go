package outlets

import (
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/simtime"
)

var epoch = time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)

func newSched() *simtime.Scheduler {
	return simtime.NewScheduler(simtime.NewClock(epoch))
}

func creds(n int) []Credential {
	out := make([]Credential, n)
	for i := range out {
		out[i] = Credential{Account: "h" + string(rune('a'+i)) + "@honeymail.example", Password: "pw"}
	}
	return out
}

func TestDefaultSitesMatchTable1Venues(t *testing.T) {
	sites := DefaultSites()
	var paste, russian, forum int
	for _, s := range sites {
		switch {
		case s.Kind == KindPaste && s.Russian:
			russian++
		case s.Kind == KindPaste:
			paste++
		case s.Kind == KindForum:
			forum++
		}
	}
	if paste != 2 || russian != 2 || forum != 4 {
		t.Fatalf("site mix = %d popular paste, %d russian paste, %d forums; want 2/2/4 (§3.2)", paste, russian, forum)
	}
}

func TestPostSchedulesPickups(t *testing.T) {
	sched := newSched()
	o := NewOutlet(&Site{Name: "p", Kind: KindPaste, PickupMeanDays: 2, MeanPickups: 3}, sched, rng.New(1))
	var mu sync.Mutex
	var got []Pickup
	n := o.Post(creds(10), func(p Pickup) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, p)
	})
	if n == 0 {
		t.Fatal("no pickups scheduled")
	}
	sched.RunFor(210 * 24 * time.Hour)
	if len(got) != n {
		t.Fatalf("delivered %d of %d pickups", len(got), n)
	}
	for _, p := range got {
		if p.At.Before(p.PostedAt) {
			t.Fatal("pickup before post")
		}
		if p.Site.Name != "p" {
			t.Fatalf("wrong site %q", p.Site.Name)
		}
	}
	_, pickups := o.Stats()
	if pickups != n {
		t.Fatalf("stats pickups = %d, want %d", pickups, n)
	}
}

func TestRussianPasteDelayedPickups(t *testing.T) {
	sched := newSched()
	site := &Site{Name: "ru", Kind: KindPaste, Russian: true, PickupMeanDays: 40, PickupDelayDays: 65, MeanPickups: 1}
	o := NewOutlet(site, sched, rng.New(2))
	var first time.Time
	var mu sync.Mutex
	o.Post(creds(20), func(p Pickup) {
		mu.Lock()
		defer mu.Unlock()
		if first.IsZero() || p.At.Before(first) {
			first = p.At
		}
	})
	sched.RunFor(210 * 24 * time.Hour)
	if first.IsZero() {
		t.Skip("no pickups drawn for this seed")
	}
	if gap := first.Sub(epoch); gap < 60*24*time.Hour {
		t.Fatalf("first russian pickup after %v, want > 2 months (§4.3)", gap)
	}
}

func TestPasteFasterThanForum(t *testing.T) {
	// Figure 3: paste pickups concentrate earlier than forum pickups.
	within25 := func(site *Site, seed int64) float64 {
		sched := newSched()
		o := NewOutlet(site, sched, rng.New(seed))
		var mu sync.Mutex
		var times []time.Time
		o.Post(creds(25), func(p Pickup) {
			mu.Lock()
			defer mu.Unlock()
			times = append(times, p.At)
		})
		sched.RunFor(210 * 24 * time.Hour)
		if len(times) == 0 {
			return 0
		}
		n := 0
		for _, at := range times {
			if at.Sub(epoch) <= 25*24*time.Hour {
				n++
			}
		}
		return float64(n) / float64(len(times))
	}
	paste := within25(&Site{Name: "p", Kind: KindPaste, PickupMeanDays: 8, MeanPickups: 2.4}, 3)
	forum := within25(&Site{Name: "f", Kind: KindForum, PickupMeanDays: 14, MeanPickups: 1.6}, 3)
	if paste <= forum {
		t.Fatalf("paste within-25d share %.2f <= forum %.2f; want paste faster", paste, forum)
	}
}

func TestForumInquiries(t *testing.T) {
	sched := newSched()
	o := NewOutlet(&Site{Name: "f", Kind: KindForum, PickupMeanDays: 10, MeanPickups: 1, InquiryRate: 1}, sched, rng.New(4))
	o.Post(creds(5), func(Pickup) {})
	sched.RunFor(210 * 24 * time.Hour)
	inq := o.Inquiries()
	if len(inq) != 5 {
		t.Fatalf("inquiries = %d, want 5 at rate 1", len(inq))
	}
	for _, q := range inq {
		if q.From == "" || q.Message == "" || q.Site.Name != "f" {
			t.Fatalf("malformed inquiry %+v", q)
		}
	}
}

func TestPasteSitesNeverInquire(t *testing.T) {
	sched := newSched()
	o := NewOutlet(&Site{Name: "p", Kind: KindPaste, PickupMeanDays: 5, MeanPickups: 2, InquiryRate: 1}, sched, rng.New(5))
	o.Post(creds(10), func(Pickup) {})
	sched.RunFor(210 * 24 * time.Hour)
	if got := len(o.Inquiries()); got != 0 {
		t.Fatalf("paste outlet produced %d inquiries", got)
	}
}

func TestRegistry(t *testing.T) {
	sched := newSched()
	r := NewRegistry(DefaultSites(), sched, rng.New(6))
	if got := r.ByKind(KindPaste, false); len(got) != 2 || got[0].Site().Name != "pastebin.example" {
		t.Fatalf("popular paste outlets = %d, want 2 led by pastebin.example", len(got))
	}
	if got := len(r.ByKind(KindPaste, true)); got != 2 {
		t.Fatalf("russian paste outlets = %d", got)
	}
	if got := len(r.ByKind(KindForum, false)); got != 4 {
		t.Fatalf("forums = %d", got)
	}
}

func TestRegistryDeterministicAcrossDrawOrder(t *testing.T) {
	// ForkNamed streams mean outlet behaviour does not depend on map
	// iteration order of registry construction.
	run := func() []time.Time {
		sched := newSched()
		r := NewRegistry(DefaultSites(), sched, rng.New(7))
		var o *Outlet
		for _, f := range r.ByKind(KindForum, false) {
			if f.Site().Name == "hackforums.example" {
				o = f
			}
		}
		if o == nil {
			t.Fatal("hackforums.example missing from the forums")
		}
		var mu sync.Mutex
		var times []time.Time
		o.Post(creds(10), func(p Pickup) {
			mu.Lock()
			defer mu.Unlock()
			times = append(times, p.At)
		})
		sched.RunFor(210 * 24 * time.Hour)
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ: %d vs %d pickups", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("pickup times not reproducible")
		}
	}
}

func TestPostNilHandlerPanics(t *testing.T) {
	sched := newSched()
	o := NewOutlet(&Site{Name: "p", Kind: KindPaste, PickupMeanDays: 5, MeanPickups: 1}, sched, rng.New(8))
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler accepted")
		}
	}()
	o.Post(creds(1), nil)
}

func TestKindString(t *testing.T) {
	if KindPaste.String() != "paste" || KindForum.String() != "forum" {
		t.Fatal("kind labels changed")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind renders empty")
	}
}
