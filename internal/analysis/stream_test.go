package analysis

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

var streamLeak = time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)

// streamFixture builds a dataset exercising every aggregate path:
// multiple classes per account, overlapping windows, password
// changes, locations with and without points, drafts read by later
// visitors, and a blacklisted IP — plus the seeded contents its reads
// resolve against.
func streamFixture() (*Dataset, MapContents) {
	h := func(n int) time.Time { return streamLeak.Add(time.Duration(n) * time.Hour) }
	ds := &Dataset{
		Accesses: []Access{
			{Account: "a@x", Cookie: "a-1", First: h(24), Last: h(30), Outlet: OutletPaste, Hint: HintUK,
				LeakTime: streamLeak, IP: "10.0.0.1", City: "Leeds", Country: "UK", HasPoint: true,
				UserAgent: "Mozilla/5.0 Firefox"},
			{Account: "a@x", Cookie: "a-2", First: h(26), Last: h(40), Outlet: OutletPaste, Hint: HintUK,
				LeakTime: streamLeak, IP: "10.0.0.2", HasPoint: false, UserAgent: ""},
			{Account: "b@x", Cookie: "b-1", First: h(-4), Last: h(2), Outlet: OutletForum, Hint: HintNone,
				LeakTime: streamLeak, IP: "10.0.0.3", City: "Lagos", Country: "NG", HasPoint: true,
				UserAgent: "Mozilla/5.0 Android"},
			{Account: "c@x", Cookie: "c-1", First: h(500), Last: h(520), Outlet: OutletMalware, Hint: HintNone,
				LeakTime: streamLeak, IP: "10.0.0.4", HasPoint: false, UserAgent: "curl"},
		},
		Actions: []Action{
			{Time: h(27), Account: "a@x", Kind: ActionRead, Message: 5},
			{Time: h(28), Account: "a@x", Kind: ActionDraft, Message: 900, Body: "ransom in bitcoin"},
			{Time: h(29), Account: "a@x", Kind: ActionRead, Message: 900}, // reads the draft
			{Time: h(1), Account: "b@x", Kind: ActionSent, Message: 7},
			{Time: h(1), Account: "b@x", Kind: ActionStarred, Message: 8},
			{Time: h(600), Account: "c@x", Kind: ActionRead, Message: 9}, // after window: fallback attribution
		},
		PasswordChanges: []PasswordChange{
			{Account: "a@x", Time: h(39)},
		},
		Blacklisted:       map[string]bool{"10.0.0.3": true},
		SuspendedAccounts: 2,
	}
	contents := MapContents{
		"a@x": {5: "wire transfer statement account"},
		"c@x": {9: "invoice payment details"},
	}
	return ds, contents
}

// normalize canonicalises the order-insensitive event multisets so
// DeepEqual compares the observable aggregate state.
func normalize(a *Aggregates) *Aggregates {
	sort.Slice(a.Reads, func(i, j int) bool {
		if a.Reads[i].Account != a.Reads[j].Account {
			return a.Reads[i].Account < a.Reads[j].Account
		}
		return a.Reads[i].Message < a.Reads[j].Message
	})
	sort.Slice(a.Drafts, func(i, j int) bool {
		if a.Drafts[i].Account != a.Drafts[j].Account {
			return a.Drafts[i].Account < a.Drafts[j].Account
		}
		return a.Drafts[i].Message < a.Drafts[j].Message
	})
	return a
}

// TestStreamObservationOrderInvariance: feeding the same observations
// in a different interleaving (and with stale access rows later
// superseded) produces identical aggregates.
func TestStreamObservationOrderInvariance(t *testing.T) {
	ds, _ := streamFixture()
	ref := AggregatesFromDataset(ds)

	sc := NewStreamClassifier()
	// Actions first, then accesses in reverse, with a stale row for
	// a-2 (smaller Last) pushed before the final one — as interleaved
	// scrapes would.
	for i := len(ds.Actions) - 1; i >= 0; i-- {
		sc.ObserveAction(ds.Actions[i])
	}
	for _, pc := range ds.PasswordChanges {
		sc.ObservePasswordChange(pc)
	}
	for i := len(ds.Accesses) - 1; i >= 0; i-- {
		a := ds.Accesses[i]
		if a.Cookie == "a-2" {
			stale := a
			stale.Last = a.First.Add(time.Hour)
			sc.ObserveAccess(stale)
		}
		sc.ObserveAccess(a)
	}
	got := sc.Finalize(nil, func(ip string) bool { return ds.Blacklisted[ip] })
	got.SuspendedAccounts = ds.SuspendedAccounts

	if !reflect.DeepEqual(normalize(got), normalize(ref)) {
		t.Fatalf("aggregates differ:\n got %+v\nwant %+v", got, ref)
	}
}

// TestStreamShardSplitMerge: splitting accounts across classifiers
// (as shards do) and merging matches the single-classifier result,
// regardless of merge order.
func TestStreamShardSplitMerge(t *testing.T) {
	ds, contents := streamFixture()
	ref := AggregatesFromDataset(ds)

	build := func(accounts ...string) *Aggregates {
		want := map[string]bool{}
		for _, a := range accounts {
			want[a] = true
		}
		sc := NewStreamClassifier()
		for _, a := range ds.Accesses {
			if want[a.Account] {
				sc.ObserveAccess(a)
			}
		}
		for _, act := range ds.Actions {
			if want[act.Account] {
				sc.ObserveAction(act)
			}
		}
		for _, pc := range ds.PasswordChanges {
			if want[pc.Account] {
				sc.ObservePasswordChange(pc)
			}
		}
		return sc.Finalize(nil, func(ip string) bool { return ds.Blacklisted[ip] })
	}

	for name, order := range map[string][][]string{
		"ab-c": {{"a@x"}, {"b@x"}, {"c@x"}},
		"c-ba": {{"c@x"}, {"b@x"}, {"a@x"}},
		"bc-a": {{"b@x", "c@x"}, {"a@x"}},
	} {
		merged := NewAggregates()
		for _, accounts := range order {
			if err := merged.Merge(build(accounts...)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		merged.SuspendedAccounts = ds.SuspendedAccounts
		// Vector append order differs per merge order; compare via the
		// canonical sorted accessors plus the scalar state.
		for _, region := range []Hint{HintUK, HintUS} {
			if !reflect.DeepEqual(merged.DistanceVectorsFor(region), ref.DistanceVectorsFor(region)) {
				t.Fatalf("%s: distance vectors differ for %q", name, region)
			}
		}
		gotKW := merged.KeywordInference(contents, nil)
		refKW := ref.KeywordInference(contents, nil)
		if !reflect.DeepEqual(gotKW.TopSearched(5), refKW.TopSearched(5)) {
			t.Fatalf("%s: keyword inference differs", name)
		}
		if merged.Overview() != ref.Overview() {
			t.Fatalf("%s: overview %+v vs %+v", name, merged.Overview(), ref.Overview())
		}
		if !reflect.DeepEqual(merged.Classes, ref.Classes) || !reflect.DeepEqual(merged.PerOutlet, ref.PerOutlet) {
			t.Fatalf("%s: class tallies differ", name)
		}
		if !reflect.DeepEqual(merged.ConfigRows(), ref.ConfigRows()) {
			t.Fatalf("%s: config rows differ", name)
		}
	}
}

// TestAggregatesMatchBatchFunctions: each aggregate field agrees with
// the record-level reference over the fixture.
func TestAggregatesMatchBatchFunctions(t *testing.T) {
	ds, contents := streamFixture()
	if err := MatchesReference(AggregatesFromDataset(ds), ds, contents, nil, 200, 1); err != nil {
		t.Fatal(err)
	}
}

// TestStreamFactsAnnotation: a facts lookup supplied at Finalize
// overrides whatever annotations the raw observations carried.
func TestStreamFactsAnnotation(t *testing.T) {
	sc := NewStreamClassifier()
	sc.ObserveAccess(Access{
		Account: "a@x", Cookie: "k", First: streamLeak.Add(48 * time.Hour),
		Last: streamLeak.Add(50 * time.Hour), HasPoint: false,
	})
	agg := sc.Finalize(func(account string) Facts {
		if account != "a@x" {
			t.Fatalf("facts asked for %q", account)
		}
		return Facts{Outlet: OutletForum, Hint: HintUS, LeakTime: streamLeak}
	}, nil)
	if c := agg.PerOutlet[OutletForum]; c.Total != 1 {
		t.Fatalf("forum tally %+v", agg.PerOutlet)
	}
	sk := agg.TimeToAccess[OutletForum]
	if sk == nil || sk.N() != 1 {
		t.Fatalf("time-to-access sketch missing: %v", agg.TimeToAccess)
	}
}
