package report

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/stats"
)

// CDFSeries renders the ECDF of a sample at the given probe points —
// the reference SketchSeries must match.
func CDFSeries(name string, sample []float64, probes []float64) string {
	if len(sample) == 0 {
		return fmt.Sprintf("%s: (empty)", name)
	}
	e := stats.NewECDF(sample)
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d):", name, e.N())
	for _, p := range e.Sample(probes) {
		fmt.Fprintf(&b, " P(x<=%g)=%.2f", p.X, p.P)
	}
	return b.String()
}

// Empty aggregates: each figure prints its header alone (the timeline
// keeps one zero row) and no renderer panics.
func TestAggregateRenderingEmpty(t *testing.T) {
	agg := analysis.NewStreamClassifier().Finalize(nil, nil)

	if got, want := Figure1Sketches(agg.Durations), "Figure 1: CDF of unique-access length by class (hours)\n"; got != want {
		t.Fatalf("empty Figure1: %q, want %q", got, want)
	}
	if got, want := Figure3Sketches(agg.TimeToAccess), "Figure 3: CDF of days from leak to access by outlet\n"; got != want {
		t.Fatalf("empty Figure3: %q, want %q", got, want)
	}
	wantF4 := "Figure 4: unique accesses per 10-day window since leak\n" +
		"days  paste  paste-ru  forum  malware\n" +
		"----  -----  --------  -----  -------\n" +
		"0-9   0      0         0      0\n"
	if got := Figure4Buckets(agg.Timeline, agg.TimelineMax); got != wantF4 {
		t.Fatalf("empty Figure4: %q, want %q", got, wantF4)
	}
	if got := Figure2(agg.PerOutlet); !strings.Contains(got, "outlet") {
		t.Fatalf("empty Figure2 lost its header: %q", got)
	}
	if got, want := Overview(agg.Overview()), Overview(analysis.Overview{}); got != want {
		t.Fatalf("empty overview: %q vs %q", got, want)
	}
	if got := SystemConfig(agg.ConfigRows()); !strings.Contains(got, "outlet") {
		t.Fatalf("empty sysconfig: %q", got)
	}
	if rows := agg.MedianRadii(analysis.HintUK); len(rows) != 0 {
		t.Fatalf("empty aggregates produced radius rows: %v", rows)
	}
}

// SketchSeries must render byte-identically to CDFSeries over the
// same sample, including the empty form.
func TestSketchSeriesMatchesCDFSeries(t *testing.T) {
	probes := []float64{1, 5, 10}
	sample := []float64{0.5, 2, 2, 7, 40}
	sk := stats.NewProbeSketch(probes)
	for _, v := range sample {
		sk.Add(v)
	}
	if got, want := SketchSeries("paste", sk), CDFSeries("paste", sample, probes); got != want {
		t.Fatalf("sketch %q vs ecdf %q", got, want)
	}
	empty := stats.NewProbeSketch(probes)
	if got, want := SketchSeries("x", empty), CDFSeries("x", nil, probes); got != want {
		t.Fatalf("empty sketch %q vs ecdf %q", got, want)
	}
	if got, want := SketchSeries("x", nil), CDFSeries("x", nil, probes); got != want {
		t.Fatalf("nil sketch %q vs ecdf %q", got, want)
	}
}

// singleAccessDataset builds a one-access dataset: a lone curious
// forum login, one hour long, 36 hours after the leak, with no
// location and no user agent.
func singleAccessDataset() *analysis.Dataset {
	leak := time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)
	return &analysis.Dataset{
		Accesses: []analysis.Access{{
			Account: "a@honeymail.example", Cookie: "c-1",
			First: leak.Add(36 * time.Hour), Last: leak.Add(37 * time.Hour),
			Outlet: analysis.OutletForum, LeakTime: leak,
			HasPoint: false, UserAgent: "",
		}},
	}
}

// Single class / single access: the aggregate renderers print the
// hand-derived figures on the smallest possible population.
func TestAggregateRenderingSingleClass(t *testing.T) {
	agg := analysis.AggregatesFromDataset(singleAccessDataset())
	forum := analysis.OutletForum

	wantF1 := "Figure 1: CDF of unique-access length by class (hours)\n" +
		"  " + CDFSeries("curious", []float64{1}, analysis.DurationProbes) + "\n"
	if got := Figure1Sketches(agg.Durations); got != wantF1 {
		t.Fatalf("Figure1: %q, want %q", got, wantF1)
	}
	wantF2 := Figure2(map[analysis.Outlet]analysis.ClassCounts{forum: {Total: 1, Curious: 1}})
	if got := Figure2(agg.PerOutlet); got != wantF2 {
		t.Fatalf("Figure2: %q, want %q", got, wantF2)
	}
	wantF3 := "Figure 3: CDF of days from leak to access by outlet\n" +
		"  " + CDFSeries("forum", []float64{1.5}, analysis.LeakDaysProbes) + "\n"
	if got := Figure3Sketches(agg.TimeToAccess); got != wantF3 {
		t.Fatalf("Figure3: %q, want %q", got, wantF3)
	}
	wantF4 := Figure4Buckets(map[analysis.Outlet]map[int]int{forum: {0: 1}}, 0)
	if got := Figure4Buckets(agg.Timeline, agg.TimelineMax); got != wantF4 {
		t.Fatalf("Figure4: %q, want %q", got, wantF4)
	}
	wantOverview := Overview(analysis.Overview{UniqueAccesses: 1, WithoutLocation: 1})
	if got := Overview(agg.Overview()); got != wantOverview {
		t.Fatalf("Overview: %q, want %q", got, wantOverview)
	}
	wantConfig := SystemConfig([]analysis.ConfigRow{{Outlet: forum, Accesses: 1, EmptyUA: 1}})
	if got := SystemConfig(agg.ConfigRows()); got != wantConfig {
		t.Fatalf("SystemConfig: %q, want %q", got, wantConfig)
	}
}

// Single shard vs many shards: splitting the same records across
// several aggregates and merging must render identically to one
// aggregate over everything (merge associativity at the render
// level).
func TestAggregateRenderingShardSplit(t *testing.T) {
	leak := time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)
	accessFor := func(account, cookie string, outlet analysis.Outlet, firstH, lastH int) analysis.Access {
		return analysis.Access{
			Account: account, Cookie: cookie,
			First: leak.Add(time.Duration(firstH) * time.Hour), Last: leak.Add(time.Duration(lastH) * time.Hour),
			Outlet: outlet, LeakTime: leak, UserAgent: "Mozilla/5.0 Chrome",
		}
	}
	ds := &analysis.Dataset{
		Accesses: []analysis.Access{
			accessFor("a@x", "c-1", analysis.OutletPaste, 24, 30),
			accessFor("a@x", "c-2", analysis.OutletPaste, 60, 61),
			accessFor("b@x", "c-3", analysis.OutletForum, 100, 120),
			accessFor("c@x", "c-4", analysis.OutletMalware, 300, 302),
		},
		Actions: []analysis.Action{
			{Time: leak.Add(25 * time.Hour), Account: "a@x", Kind: analysis.ActionRead, Message: 1},
			{Time: leak.Add(110 * time.Hour), Account: "b@x", Kind: analysis.ActionSent, Message: 2},
		},
	}
	whole := analysis.AggregatesFromDataset(ds)

	// Shard split: accounts a,c on shard 0, account b on shard 1
	// (accounts never straddle shards).
	part := func(accounts ...string) *analysis.Dataset {
		want := map[string]bool{}
		for _, a := range accounts {
			want[a] = true
		}
		out := &analysis.Dataset{}
		for _, a := range ds.Accesses {
			if want[a.Account] {
				out.Accesses = append(out.Accesses, a)
			}
		}
		for _, act := range ds.Actions {
			if want[act.Account] {
				out.Actions = append(out.Actions, act)
			}
		}
		return out
	}
	merged := analysis.AggregatesFromDataset(part("a@x", "c@x"))
	if err := merged.Merge(analysis.AggregatesFromDataset(part("b@x"))); err != nil {
		t.Fatal(err)
	}

	renders := []struct {
		name string
		from func(*analysis.Aggregates) string
	}{
		{"Overview", func(a *analysis.Aggregates) string { return Overview(a.Overview()) }},
		{"Figure1", func(a *analysis.Aggregates) string { return Figure1Sketches(a.Durations) }},
		{"Figure2", func(a *analysis.Aggregates) string { return Figure2(a.PerOutlet) }},
		{"Figure3", func(a *analysis.Aggregates) string { return Figure3Sketches(a.TimeToAccess) }},
		{"Figure4", func(a *analysis.Aggregates) string { return Figure4Buckets(a.Timeline, a.TimelineMax) }},
		{"SystemConfig", func(a *analysis.Aggregates) string { return SystemConfig(a.ConfigRows()) }},
	}
	for _, r := range renders {
		if got, want := r.from(merged), r.from(whole); got != want {
			t.Fatalf("%s differs after shard split+merge:\n%q\nvs\n%q", r.name, got, want)
		}
	}
}
