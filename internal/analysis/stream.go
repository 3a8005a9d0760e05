package analysis

import (
	"sort"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/stats"
)

// Streaming classification: each shard feeds its monitor's
// observations through a StreamClassifier as simulated time advances.
// At the end of the run the classifier folds its accesses into
// Aggregates — class tallies, CDF sketches, timeline buckets, distance
// vectors and keyword events — and the experiment merges one
// Aggregates per shard: O(shards) merge work instead of an
// O(records) merge-sort-classify pass. The classifier also hands its
// retained observations out (Observations), which is how the engine
// rebuilds a record-level Dataset without keeping a second copy.
//
// The aggregates match a record-level derivation over the merged
// Dataset by construction, not coincidence:
//   - accounts live on exactly one shard, and Classify's attribution
//     is per-account and per-action independent, so running the shared
//     classifyAccount core shard-by-shard reproduces Classify's classes;
//   - every aggregate is a sum, set union, probe-sketch or sorted
//     vector, all order-independent, so shard interleaving cannot leak
//     into the result.
// The record-level reference lives in reference_test.go;
// TestStreamMatchesReference compares every aggregate with it at
// shard counts 1 and 4.

// The probe grids of the report's CDF figures. The sketches count on
// exactly these grids, so each figure value equals the ECDF of the
// underlying sample at the probe.
var (
	// DurationProbes is Figure 1's grid (access length, hours).
	DurationProbes = []float64{0.1, 0.5, 1, 6, 24, 72, 168}
	// LeakDaysProbes is Figure 3's grid (days from leak to access).
	LeakDaysProbes = []float64{1, 5, 10, 25, 50, 100, 150, 200}
)

// Facts are the experiment-plan annotations for one account: what the
// researchers know about their own leak (§3.2), resolved when the
// aggregates are finalised.
type Facts struct {
	Outlet   Outlet
	Hint     Hint
	LeakTime time.Time
}

// ReadEvent is one observed read action, kept for the §4.6 keyword
// inference (the read text is resolved against the seeded contents at
// inference time).
type ReadEvent struct {
	Account string
	Message int64
}

// DraftEvent is one observed draft copy with its captured body.
type DraftEvent struct {
	Account string
	Message int64
	Body    string
}

// acctState is everything the classifier retains for one account
// while its shard runs: the latest activity row per cookie plus the
// action/password events awaiting end-of-run attribution. Attribution
// has to wait because an access window [First, Last+classifySlack]
// keeps growing while the attacker is active, so the stream holds
// per-account events (cheap, typed, already self-filtered) and
// attributes once the windows are final.
type acctState struct {
	accesses obsCols // columnar latest-row-per-cookie (see columnar.go)
	actions  []Action
	changes  []PasswordChange
}

// StreamClassifier ingests one shard's monitoring observations as the
// simulation runs and emits mergeable Aggregates at the end. It is
// safe for concurrent use, though the sharded engine drives each
// instance from a single shard goroutine.
type StreamClassifier struct {
	mu       sync.Mutex
	accounts map[string]*acctState
}

// NewStreamClassifier builds an empty classifier.
func NewStreamClassifier() *StreamClassifier {
	return &StreamClassifier{accounts: make(map[string]*acctState)}
}

func (sc *StreamClassifier) state(account string) *acctState {
	st, ok := sc.accounts[account]
	if !ok {
		st = &acctState{}
		sc.accounts[account] = st
	}
	return st
}

// ObserveAccess ingests the latest activity row for one (account,
// cookie) pair, superseding any earlier row for the same pair. Plan
// annotations (Outlet, Hint, LeakTime) may be left zero; Finalize
// fills them from its facts lookup.
func (sc *StreamClassifier) ObserveAccess(a Access) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.state(a.Account).accesses.set(a)
}

// ObserveAction ingests one mailbox action notification.
func (sc *StreamClassifier) ObserveAction(act Action) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	st := sc.state(act.Account)
	st.actions = append(st.actions, act)
}

// ObservePasswordChange ingests one scraper-lockout event.
func (sc *StreamClassifier) ObservePasswordChange(pc PasswordChange) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	st := sc.state(pc.Account)
	st.changes = append(st.changes, pc)
}

// Observations returns copies of everything the classifier retains:
// each account's latest access row per cookie (with the annotations
// they were ingested with), its actions in arrival order and its
// password changes. Accounts come in ascending order; callers that
// merge several classifiers sort the result themselves.
func (sc *StreamClassifier) Observations() (accesses []Access, actions []Action, changes []PasswordChange) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	names := make([]string, 0, len(sc.accounts))
	for account := range sc.accounts {
		names = append(names, account)
	}
	sort.Strings(names)
	for _, account := range names {
		st := sc.accounts[account]
		for i := range st.accesses.cookie {
			accesses = append(accesses, st.accesses.materialize(int32(i), account))
		}
		actions = append(actions, st.actions...)
		changes = append(changes, st.changes...)
	}
	return accesses, actions, changes
}

// Finalize classifies every observed account against its final access
// windows and folds the results into fresh Aggregates. facts, when
// non-nil, supplies the plan annotations per account (the engine's
// path); when nil the annotations already on the ingested accesses
// are used (the AggregatesFromDataset path). blacklisted, when non-nil,
// marks which source IPs are on the §4.5 blacklist. Finalize does not
// consume the classifier state, so it can be re-run (benchmarks do).
func (sc *StreamClassifier) Finalize(facts func(account string) Facts, blacklisted func(ip string) bool) *Aggregates {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	agg := NewAggregates()
	for account, st := range sc.accounts {
		// Canonical per-account order: ascending cookie, matching the
		// (account, cookie) order of a merged Dataset, so window ties
		// break identically.
		cookies := append([]string(nil), st.accesses.cookie...)
		sort.Strings(cookies)
		var f Facts
		if facts != nil {
			f = facts(account)
		}
		cs := make([]Classified, len(cookies))
		refs := make([]*Classified, len(cookies))
		for i, c := range cookies {
			a := st.accesses.materialize(st.accesses.byCookie[c], account)
			if facts != nil {
				a.Outlet, a.Hint, a.LeakTime = f.Outlet, f.Hint, f.LeakTime
			}
			cs[i] = Classified{Access: a, Classes: Curious}
			refs[i] = &cs[i]
		}
		classifyAccount(refs, st.actions, st.changes)
		for _, c := range cs {
			agg.addAccess(c, blacklisted)
		}
		for _, act := range st.actions {
			agg.addAction(act)
		}
	}
	agg.sealDrafts()
	return agg
}

// Aggregates hold everything the report's tables and figures need, in
// mergeable form. Per-shard instances merge pairwise; the counters
// sum, the country set unions, the sketches merge probe-wise, and the
// vectors/events concatenate (accounts are disjoint across shards).
type Aggregates struct {
	// Classes and PerOutlet are §4.2's taxonomy tallies (Figure 2).
	Classes   ClassCounts
	PerOutlet map[Outlet]ClassCounts

	// Durations are Figure 1's per-class access-length sketches
	// (hours); TimeToAccess are Figure 3's per-outlet leak-to-access
	// sketches (days, non-negative only).
	Durations    map[string]*stats.ProbeSketch
	TimeToAccess map[Outlet]*stats.ProbeSketch

	// Timeline buckets Figure 4's unique accesses per outlet into
	// 10-day windows since the leak; TimelineMax is the largest
	// non-negative bucket seen (the last row the figure prints).
	Timeline    map[Outlet]map[int]int
	TimelineMax int

	// SystemConfig is the §4.4 fingerprint tally per outlet.
	SystemConfig map[Outlet]*ConfigRow

	// Distances are Figure 5 / §4.5's per-region, per-group distance
	// vectors (km to the region midpoint). Unsorted until read through
	// DistanceVectorsFor.
	Distances map[Hint]map[GroupKey][]float64

	// Overview counters (§4.1/§4.5).
	Countries       map[string]bool
	WithLocation    int
	WithoutLocation int
	BlacklistedIPs  int
	EmailsRead      int
	EmailsSent      int
	UniqueDrafts    int
	// SuspendedAccounts is a platform-global figure; the experiment
	// sets it after merging the shard aggregates.
	SuspendedAccounts int

	// Reads and Drafts are the §4.6 keyword-inference events.
	Reads  []ReadEvent
	Drafts []DraftEvent

	// draftSet tracks unique (account, message) drafts until sealed.
	draftSet map[string]map[int64]bool
}

// NewAggregates returns empty aggregates.
func NewAggregates() *Aggregates {
	return &Aggregates{
		PerOutlet:    make(map[Outlet]ClassCounts),
		Durations:    map[string]*stats.ProbeSketch{},
		TimeToAccess: map[Outlet]*stats.ProbeSketch{},
		Timeline:     map[Outlet]map[int]int{},
		SystemConfig: map[Outlet]*ConfigRow{},
		Distances:    map[Hint]map[GroupKey][]float64{},
		Countries:    map[string]bool{},
		draftSet:     map[string]map[int64]bool{},
	}
}

// addAccess folds one classified access into every access-derived
// aggregate.
func (agg *Aggregates) addAccess(c Classified, blacklisted func(ip string) bool) {
	a := c.Access

	// Taxonomy tallies (Figure 2 / §4.2).
	agg.Classes.add(c.Classes)
	po := agg.PerOutlet[a.Outlet]
	po.add(c.Classes)
	agg.PerOutlet[a.Outlet] = po

	// Figure 1: duration CDF per class; an access counts in every class
	// it holds, and as curious only when it holds no other.
	hours := a.Duration().Hours()
	addDur := func(key string) {
		sk, ok := agg.Durations[key]
		if !ok {
			sk = stats.NewProbeSketch(DurationProbes)
			agg.Durations[key] = sk
		}
		sk.Add(hours)
	}
	if c.Classes == Curious || c.Classes == 0 {
		addDur("curious")
	} else {
		if c.Classes.Has(GoldDigger) {
			addDur("gold-digger")
		}
		if c.Classes.Has(Spammer) {
			addDur("spammer")
		}
		if c.Classes.Has(Hijacker) {
			addDur("hijacker")
		}
	}

	// Figures 3 and 4: days since leak.
	days := a.First.Sub(a.LeakTime).Hours() / 24
	if days >= 0 {
		sk, ok := agg.TimeToAccess[a.Outlet]
		if !ok {
			sk = stats.NewProbeSketch(LeakDaysProbes)
			agg.TimeToAccess[a.Outlet] = sk
		}
		sk.Add(days)
	}
	bucket := int(days) / 10
	m, ok := agg.Timeline[a.Outlet]
	if !ok {
		m = map[int]int{}
		agg.Timeline[a.Outlet] = m
	}
	m[bucket]++
	if bucket > agg.TimelineMax {
		agg.TimelineMax = bucket
	}

	// §4.4 system configuration.
	r, ok := agg.SystemConfig[a.Outlet]
	if !ok {
		r = &ConfigRow{Outlet: a.Outlet, BrowserNames: make(map[string]int)}
		agg.SystemConfig[a.Outlet] = r
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

	// §4.5 location: overview counters and Figure 5 distance vectors.
	if a.HasPoint {
		agg.WithLocation++
		if a.Country != "" {
			agg.Countries[a.Country] = true
		}
	} else {
		agg.WithoutLocation++
	}
	if blacklisted != nil && blacklisted(a.IP) {
		agg.BlacklistedIPs++
	}
	if a.HasPoint {
		for _, region := range []Hint{HintUK, HintUS} {
			var outlet Outlet
			switch a.Outlet {
			case OutletPaste, OutletPasteRussian:
				outlet = OutletPaste
			case OutletForum:
				outlet = OutletForum
			default:
				continue
			}
			if a.Hint != region && a.Hint != HintNone {
				continue
			}
			mid := geo.LondonMidpoint
			if region == HintUS {
				mid = geo.PontiacMidpoint
			}
			vm, ok := agg.Distances[region]
			if !ok {
				vm = map[GroupKey][]float64{}
				agg.Distances[region] = vm
			}
			key := GroupKey{Outlet: outlet, Hint: a.Hint}
			vm[key] = append(vm[key], geo.HaversineKm(a.Point, mid))
		}
	}
}

// addAction folds one action into the overview counters and the
// keyword-inference event lists.
func (agg *Aggregates) addAction(act Action) {
	switch act.Kind {
	case ActionRead:
		agg.EmailsRead++
		agg.Reads = append(agg.Reads, ReadEvent{Account: act.Account, Message: act.Message})
	case ActionSent:
		agg.EmailsSent++
	case ActionDraft:
		m, ok := agg.draftSet[act.Account]
		if !ok {
			m = make(map[int64]bool)
			agg.draftSet[act.Account] = m
		}
		m[act.Message] = true
		agg.Drafts = append(agg.Drafts, DraftEvent{Account: act.Account, Message: act.Message, Body: act.Body})
	}
}

// sealDrafts converts the per-account draft sets into the UniqueDrafts
// count. Accounts are disjoint across shards, so counts sum on merge.
func (agg *Aggregates) sealDrafts() {
	for _, m := range agg.draftSet {
		agg.UniqueDrafts += len(m)
	}
	agg.draftSet = nil
}

// Merge folds another shard's aggregates into agg. Both must be
// sealed (produced by Finalize or AggregatesFromDataset). Merging is
// O(size of the aggregates), independent of how many access records
// either side folded in.
func (agg *Aggregates) Merge(o *Aggregates) error {
	if o == nil {
		return nil
	}
	agg.Classes.merge(o.Classes)
	for outlet, c := range o.PerOutlet {
		v := agg.PerOutlet[outlet]
		v.merge(c)
		agg.PerOutlet[outlet] = v
	}
	for key, sk := range o.Durations {
		mine, ok := agg.Durations[key]
		if !ok {
			agg.Durations[key] = sk.Clone()
			continue
		}
		if err := mine.Merge(sk); err != nil {
			return err
		}
	}
	for outlet, sk := range o.TimeToAccess {
		mine, ok := agg.TimeToAccess[outlet]
		if !ok {
			agg.TimeToAccess[outlet] = sk.Clone()
			continue
		}
		if err := mine.Merge(sk); err != nil {
			return err
		}
	}
	for outlet, buckets := range o.Timeline {
		m, ok := agg.Timeline[outlet]
		if !ok {
			m = map[int]int{}
			agg.Timeline[outlet] = m
		}
		for b, n := range buckets {
			m[b] += n
		}
	}
	if o.TimelineMax > agg.TimelineMax {
		agg.TimelineMax = o.TimelineMax
	}
	for outlet, r := range o.SystemConfig {
		mine, ok := agg.SystemConfig[outlet]
		if !ok {
			cp := *r
			cp.BrowserNames = make(map[string]int, len(r.BrowserNames))
			for k, v := range r.BrowserNames {
				cp.BrowserNames[k] = v
			}
			agg.SystemConfig[outlet] = &cp
			continue
		}
		mine.Accesses += r.Accesses
		mine.EmptyUA += r.EmptyUA
		mine.Android += r.Android
		mine.Desktop += r.Desktop
		for k, v := range r.BrowserNames {
			mine.BrowserNames[k] += v
		}
	}
	for region, vm := range o.Distances {
		dst, ok := agg.Distances[region]
		if !ok {
			dst = map[GroupKey][]float64{}
			agg.Distances[region] = dst
		}
		for key, v := range vm {
			dst[key] = append(dst[key], v...)
		}
	}
	for c := range o.Countries {
		agg.Countries[c] = true
	}
	agg.WithLocation += o.WithLocation
	agg.WithoutLocation += o.WithoutLocation
	agg.BlacklistedIPs += o.BlacklistedIPs
	agg.EmailsRead += o.EmailsRead
	agg.EmailsSent += o.EmailsSent
	agg.UniqueDrafts += o.UniqueDrafts
	agg.SuspendedAccounts += o.SuspendedAccounts
	agg.Reads = append(agg.Reads, o.Reads...)
	agg.Drafts = append(agg.Drafts, o.Drafts...)
	return nil
}

// Overview assembles the §4.1/§4.5 headline numbers.
func (agg *Aggregates) Overview() Overview {
	return Overview{
		UniqueAccesses:    agg.Classes.Total,
		EmailsRead:        agg.EmailsRead,
		EmailsSent:        agg.EmailsSent,
		UniqueDrafts:      agg.UniqueDrafts,
		SuspendedAccounts: agg.SuspendedAccounts,
		Countries:         len(agg.Countries),
		WithLocation:      agg.WithLocation,
		WithoutLocation:   agg.WithoutLocation,
		BlacklistedIPs:    agg.BlacklistedIPs,
	}
}

// ConfigRows returns the §4.4 rows in outlet order.
func (agg *Aggregates) ConfigRows() []ConfigRow {
	keys := make([]Outlet, 0, len(agg.SystemConfig))
	for k := range agg.SystemConfig {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]ConfigRow, 0, len(keys))
	for _, k := range keys {
		out = append(out, *agg.SystemConfig[k])
	}
	return out
}

// DistanceVectorsFor returns the region's distance vectors sorted
// ascending per group, so merged shard order never shows through.
func (agg *Aggregates) DistanceVectorsFor(region Hint) map[GroupKey][]float64 {
	out := make(map[GroupKey][]float64, len(agg.Distances[region]))
	for key, v := range agg.Distances[region] {
		cp := make([]float64, len(v))
		copy(cp, v)
		sort.Float64s(cp)
		out[key] = cp
	}
	return out
}

// MedianRadii computes Figure 5's rows for one region.
func (agg *Aggregates) MedianRadii(region Hint) []RadiusRow {
	return medianRadii(agg.DistanceVectorsFor(region))
}

// LocationSignificance runs the §4.5 CvM tests from the aggregates.
func (agg *Aggregates) LocationSignificance(resamples int, seed int64) []SignificanceRow {
	return locationSignificance(agg.DistanceVectorsFor, resamples, seed)
}

// KeywordInference runs the §4.6 TF-IDF pipeline from the aggregated
// read/draft events against the seeded contents.
func (agg *Aggregates) KeywordInference(contents ContentsView, dropWords []string) *TFIDFResult {
	return keywordInference(agg.Reads, agg.Drafts, contents, dropWords)
}

// AggregatesFromDataset converts a record-level Dataset, such as one
// loaded from real deployment logs, into Aggregates by replaying it
// through a StreamClassifier.
func AggregatesFromDataset(ds *Dataset) *Aggregates {
	sc := NewStreamClassifier()
	for _, a := range ds.Accesses {
		sc.ObserveAccess(a)
	}
	for _, act := range ds.Actions {
		sc.ObserveAction(act)
	}
	for _, pc := range ds.PasswordChanges {
		sc.ObservePasswordChange(pc)
	}
	agg := sc.Finalize(nil, func(ip string) bool { return ds.Blacklisted[ip] })
	agg.SuspendedAccounts = ds.SuspendedAccounts
	return agg
}
