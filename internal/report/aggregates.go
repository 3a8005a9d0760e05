package report

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/stats"
)

// The timing figures render from analysis.Aggregates: probe sketches
// for the CDFs of Figures 1 and 3, and 10-day bucket counts for
// Figure 4. A sketch counts exactly on the probes the figure prints,
// so each printed value is the ECDF of the underlying sample at that
// probe (TestSketchSeriesMatchesCDFSeries checks it against an ECDF
// reference).

// SketchSeries renders a probe sketch as a one-line CDF series:
// name (n=N): P(x<=p1)=v1 P(x<=p2)=v2 ...
func SketchSeries(name string, sk *stats.ProbeSketch) string {
	if sk == nil || sk.N() == 0 {
		return fmt.Sprintf("%s: (empty)", name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d):", name, sk.N())
	for i, p := range sk.Probes() {
		fmt.Fprintf(&b, " P(x<=%g)=%.2f", p, sk.Frac(i))
	}
	return b.String()
}

// Figure1Sketches renders Figure 1 from per-class duration sketches.
func Figure1Sketches(durations map[string]*stats.ProbeSketch) string {
	keys := sortedKeys(durations)
	var b strings.Builder
	b.WriteString("Figure 1: CDF of unique-access length by class (hours)\n")
	for _, k := range keys {
		b.WriteString("  " + SketchSeries(k, durations[k]) + "\n")
	}
	return b.String()
}

// Figure3Sketches renders Figure 3 from per-outlet leak-to-access
// sketches.
func Figure3Sketches(days map[analysis.Outlet]*stats.ProbeSketch) string {
	var b strings.Builder
	b.WriteString("Figure 3: CDF of days from leak to access by outlet\n")
	for _, o := range []analysis.Outlet{analysis.OutletPaste, analysis.OutletPasteRussian, analysis.OutletForum, analysis.OutletMalware} {
		if sk, ok := days[o]; ok {
			b.WriteString("  " + SketchSeries(string(o), sk) + "\n")
		}
	}
	return b.String()
}

// Figure4Buckets renders Figure 4 from pre-bucketed per-outlet
// counts (10-day windows since leak; maxBucket is the last row).
func Figure4Buckets(buckets map[analysis.Outlet]map[int]int, maxBucket int) string {
	t := NewTable("days", "paste", "paste-ru", "forum", "malware")
	for b := 0; b <= maxBucket; b++ {
		t.AddRow(
			fmt.Sprintf("%d-%d", b*10, b*10+9),
			fmt.Sprint(buckets[analysis.OutletPaste][b]),
			fmt.Sprint(buckets[analysis.OutletPasteRussian][b]),
			fmt.Sprint(buckets[analysis.OutletForum][b]),
			fmt.Sprint(buckets[analysis.OutletMalware][b]),
		)
	}
	return "Figure 4: unique accesses per 10-day window since leak\n" + t.String()
}
