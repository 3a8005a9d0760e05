package analysis

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"repro/internal/geo"
	"repro/internal/stats"
)

// The record-level reference: every number of the paper's §4, derived
// straight from a Dataset's records. Production code derives them once,
// from Aggregates; these functions are the oracle the aggregates must
// equal (MatchesReference), exported so that the engine test in
// package analysis_test can run them over Experiment.Dataset().

// MatchesReference compares every field of agg with the reference
// derivation over ds and returns the first difference, or nil.
// contents and dropWords feed Table 2; resamples and seed feed the
// Cramér–von Mises rows.
func MatchesReference(agg *Aggregates, ds *Dataset, contents ContentsView, dropWords []string, resamples int, seed int64) error {
	cs := Classify(ds)
	if got, want := agg.Classes, CountClasses(cs); got != want {
		return fmt.Errorf("class counts %+v, want %+v", got, want)
	}
	if got, want := agg.PerOutlet, ByOutlet(cs); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("per-outlet counts %+v, want %+v", got, want)
	}
	if err := sketchesMatchECDF("duration", agg.Durations, DurationsByClass(cs), DurationProbes); err != nil {
		return err
	}
	if err := sketchesMatchECDF("time to access", agg.TimeToAccess, TimeToFirstAccess(ds), LeakDaysProbes); err != nil {
		return err
	}
	// Figure 4 counts the timeline points in 10-day buckets.
	buckets, maxBucket := map[Outlet]map[int]int{}, 0
	for _, p := range Timeline(ds) {
		b := int(p.Days) / 10
		if buckets[p.Outlet] == nil {
			buckets[p.Outlet] = map[int]int{}
		}
		buckets[p.Outlet][b]++
		if b > maxBucket {
			maxBucket = b
		}
	}
	if !reflect.DeepEqual(agg.Timeline, buckets) || agg.TimelineMax != maxBucket {
		return fmt.Errorf("timeline %v (max %d), want %v (max %d)", agg.Timeline, agg.TimelineMax, buckets, maxBucket)
	}
	if got, want := agg.ConfigRows(), SystemConfiguration(ds); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("config rows %+v, want %+v", got, want)
	}
	if got, want := agg.Overview(), Summarize(ds); got != want {
		return fmt.Errorf("overview %+v, want %+v", got, want)
	}
	for _, region := range []Hint{HintUK, HintUS} {
		if got, want := agg.DistanceVectorsFor(region), DistanceVectors(ds, region); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s distance vectors %v, want %v", region, got, want)
		}
		if got, want := agg.MedianRadii(region), MedianRadii(ds, region); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s radii %+v, want %+v", region, got, want)
		}
	}
	if got, want := agg.LocationSignificance(resamples, seed), LocationSignificance(ds, resamples, seed); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("CvM rows %+v, want %+v", got, want)
	}
	got, want := agg.KeywordInference(contents, dropWords), KeywordInference(ds, contents, dropWords)
	if !reflect.DeepEqual(got.TopSearched(10), want.TopSearched(10)) || !reflect.DeepEqual(got.TopCorpus(10), want.TopCorpus(10)) {
		return fmt.Errorf("Table 2 rows %+v / %+v, want %+v / %+v",
			got.TopSearched(10), got.TopCorpus(10), want.TopSearched(10), want.TopCorpus(10))
	}
	return nil
}

// sketchesMatchECDF checks that each probe sketch holds as many values
// as its reference sample and reads, at every probe, the sample's ECDF.
func sketchesMatchECDF[K comparable](what string, sketches map[K]*stats.ProbeSketch, samples map[K][]float64, probes []float64) error {
	if len(sketches) != len(samples) {
		return fmt.Errorf("%s: %d sketches, want %d", what, len(sketches), len(samples))
	}
	for k, sample := range samples {
		sk := sketches[k]
		if sk == nil || sk.N() != len(sample) {
			return fmt.Errorf("%s %v: sketch %v, want n=%d", what, k, sk, len(sample))
		}
		if got, want := sk.Points(), stats.NewECDF(sample).Sample(probes); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s %v: CDF %v, want %v", what, k, got, want)
		}
	}
	return nil
}

// CountClasses summarises a classification.
func CountClasses(cs []Classified) ClassCounts {
	var out ClassCounts
	for _, c := range cs {
		out.add(c.Classes)
	}
	return out
}

// ByOutlet buckets classifications per outlet (Figure 2's x-axis).
func ByOutlet(cs []Classified) map[Outlet]ClassCounts {
	grouped := make(map[Outlet][]Classified)
	for _, c := range cs {
		grouped[c.Access.Outlet] = append(grouped[c.Access.Outlet], c)
	}
	out := make(map[Outlet]ClassCounts, len(grouped))
	for o, list := range grouped {
		out[o] = CountClasses(list)
	}
	return out
}

// DurationsByClass extracts access durations (in hours) per taxonomy
// class — the series of Figure 1. Overlapping classes contribute to
// every class they hold.
func DurationsByClass(cs []Classified) map[string][]float64 {
	out := make(map[string][]float64)
	add := func(key string, c Classified) {
		out[key] = append(out[key], c.Access.Duration().Hours())
	}
	for _, c := range cs {
		if c.Classes == Curious || c.Classes == 0 {
			add("curious", c)
			continue
		}
		if c.Classes.Has(GoldDigger) {
			add("gold-digger", c)
		}
		if c.Classes.Has(Spammer) {
			add("spammer", c)
		}
		if c.Classes.Has(Hijacker) {
			add("hijacker", c)
		}
	}
	return out
}

// TimeToFirstAccess computes, per outlet, the days between an
// account's leak and each access's first observation — Figure 3's
// series (unique accesses, not just first per account, matching the
// paper's CDF over unique accesses).
func TimeToFirstAccess(ds *Dataset) map[Outlet][]float64 {
	out := make(map[Outlet][]float64)
	for _, a := range ds.Accesses {
		days := a.First.Sub(a.LeakTime).Hours() / 24
		if days < 0 {
			continue
		}
		out[a.Outlet] = append(out[a.Outlet], days)
	}
	for _, v := range out {
		sort.Float64s(v)
	}
	return out
}

// TimelinePoint is one unique access as a (day-offset, outlet) point
// of Figure 4's scatter series.
type TimelinePoint struct {
	Outlet Outlet
	Days   float64
}

// Timeline extracts Figure 4's points ordered by time.
func Timeline(ds *Dataset) []TimelinePoint {
	var out []TimelinePoint
	for _, a := range ds.Accesses {
		out = append(out, TimelinePoint{Outlet: a.Outlet, Days: a.First.Sub(a.LeakTime).Hours() / 24})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Days < out[j].Days })
	return out
}

// DistanceVectors extracts, per group, the distances (km) from each
// geolocated access to the midpoint for the given region. Only
// accesses with geolocation participate (Tor/proxy accesses cannot be
// placed, §4.5); outlets other than paste and forum are skipped, as in
// the paper (malware accesses were almost all Tor).
func DistanceVectors(ds *Dataset, region Hint) map[GroupKey][]float64 {
	var mid geo.Point
	switch region {
	case HintUK:
		mid = geo.LondonMidpoint
	case HintUS:
		mid = geo.PontiacMidpoint
	default:
		panic("analysis: DistanceVectors requires HintUK or HintUS")
	}
	out := make(map[GroupKey][]float64)
	for _, a := range ds.Accesses {
		if !a.HasPoint {
			continue
		}
		var outlet Outlet
		switch a.Outlet {
		case OutletPaste, OutletPasteRussian:
			outlet = OutletPaste
		case OutletForum:
			outlet = OutletForum
		default:
			continue
		}
		// Groups compared for region R: accounts advertised with R's
		// location, and accounts leaked with no location information.
		if a.Hint != region && a.Hint != HintNone {
			continue
		}
		key := GroupKey{Outlet: outlet, Hint: a.Hint}
		out[key] = append(out[key], geo.HaversineKm(a.Point, mid))
	}
	for _, v := range out {
		sort.Float64s(v)
	}
	return out
}

// MedianRadii computes Figure 5's circle radii for one region.
func MedianRadii(ds *Dataset, region Hint) []RadiusRow {
	return medianRadii(DistanceVectors(ds, region))
}

// LocationSignificance runs the paper's four tests (paste UK, paste
// US, forum UK, forum US). Pairs with an empty side are skipped.
func LocationSignificance(ds *Dataset, resamples int, seed int64) []SignificanceRow {
	return locationSignificance(func(region Hint) map[GroupKey][]float64 {
		return DistanceVectors(ds, region)
	}, resamples, seed)
}

// SystemConfiguration breaks accesses down by fingerprint per outlet.
func SystemConfiguration(ds *Dataset) []ConfigRow {
	rows := make(map[Outlet]*ConfigRow)
	for _, a := range ds.Accesses {
		r, ok := rows[a.Outlet]
		if !ok {
			r = &ConfigRow{Outlet: a.Outlet, BrowserNames: make(map[string]int)}
			rows[a.Outlet] = r
		}
		r.Accesses++
		browser, device := classifyUA(a.UserAgent)
		switch {
		case a.UserAgent == "":
			r.EmptyUA++
		case device == "android":
			r.Android++
		default:
			r.Desktop++
		}
		r.BrowserNames[browser]++
	}
	keys := make([]Outlet, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]ConfigRow, 0, len(keys))
	for _, k := range keys {
		out = append(out, *rows[k])
	}
	return out
}

// Summarize computes the overview from a dataset.
func Summarize(ds *Dataset) Overview {
	o := Overview{
		UniqueAccesses:    len(ds.Accesses),
		SuspendedAccounts: ds.SuspendedAccounts,
	}
	countries := make(map[string]bool)
	for _, a := range ds.Accesses {
		if a.HasPoint {
			o.WithLocation++
			if a.Country != "" {
				countries[a.Country] = true
			}
		} else {
			o.WithoutLocation++
		}
		if ds.Blacklisted[a.IP] {
			o.BlacklistedIPs++
		}
	}
	o.Countries = len(countries)
	drafts := make(map[string]map[int64]bool)
	for _, act := range ds.Actions {
		switch act.Kind {
		case ActionRead:
			o.EmailsRead++
		case ActionSent:
			o.EmailsSent++
		case ActionDraft:
			m, ok := drafts[act.Account]
			if !ok {
				m = make(map[int64]bool)
				drafts[act.Account] = m
			}
			m[act.Message] = true
		}
	}
	for _, m := range drafts {
		o.UniqueDrafts += len(m)
	}
	return o
}

// KeywordInference runs the full §4.6 pipeline over a Dataset: build
// dR from read actions (seeded content + draft bodies), build dA from
// all seeded content, preprocess exactly as the paper (≥5 characters,
// header words removed, honey handles and monitor markers dropped),
// and return the TF-IDF result.
func KeywordInference(ds *Dataset, contents ContentsView, dropWords []string) *TFIDFResult {
	var reads []ReadEvent
	var drafts []DraftEvent
	for _, act := range ds.Actions {
		switch act.Kind {
		case ActionRead:
			reads = append(reads, ReadEvent{Account: act.Account, Message: act.Message})
		case ActionDraft:
			drafts = append(drafts, DraftEvent{Account: act.Account, Message: act.Message, Body: act.Body})
		}
	}
	return keywordInference(reads, drafts, contents, dropWords)
}

// MapContents adapts the historical map form — account → id →
// "subject\nbody" — to ContentsView. A nil map is a valid empty view.
type MapContents map[string]map[int64]string

// Accounts implements ContentsView.
func (m MapContents) Accounts() int { return len(m) }

// Message implements ContentsView, splitting the stored text at the
// first newline (subjects never contain one).
func (m MapContents) Message(account string, id int64) (subject, body string, ok bool) {
	text, ok := m[account][id]
	if !ok {
		return "", "", false
	}
	subject, body = splitSubject(text)
	return subject, body, true
}

// Each implements ContentsView.
func (m MapContents) Each(fn func(account string, id int64, subject, body string)) {
	for account, msgs := range m {
		for id, text := range msgs {
			subject, body := splitSubject(text)
			fn(account, id, subject, body)
		}
	}
}

func splitSubject(text string) (subject, body string) {
	if i := strings.IndexByte(text, '\n'); i >= 0 {
		return text[:i], text[i+1:]
	}
	return text, ""
}
