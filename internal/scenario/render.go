package scenario

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/honeynet"
	"repro/internal/report"
)

// Section is one report section: the id cmd/honeynet's -experiment
// flag selects it by, and its renderer.
type Section struct {
	ID     string
	Render func(r *Result, resamples int) string
}

// paperSections are the paper's artifacts in report order, overview
// through sophistication, each rendered from the merged aggregates.
var paperSections = []Section{
	{"overview", func(r *Result, _ int) string { return report.Overview(r.Agg.Overview()) }},
	{"table1", func(r *Result, _ int) string { return report.Table1(table1Rows(r.GroupCounts)) }},
	{"fig1", func(r *Result, _ int) string { return report.Figure1Sketches(r.Agg.Durations) }},
	{"fig2", func(r *Result, _ int) string { return report.Figure2(r.Agg.PerOutlet) }},
	{"fig3", func(r *Result, _ int) string { return report.Figure3Sketches(r.Agg.TimeToAccess) }},
	{"fig4", func(r *Result, _ int) string { return report.Figure4Buckets(r.Agg.Timeline, r.Agg.TimelineMax) }},
	{"sysconfig", func(r *Result, _ int) string { return report.SystemConfig(r.Agg.ConfigRows()) }},
	{"fig5a", func(r *Result, _ int) string {
		return report.Figure5("UK/London", r.Agg.MedianRadii(analysis.HintUK))
	}},
	{"fig5b", func(r *Result, _ int) string {
		return report.Figure5("US/Pontiac", r.Agg.MedianRadii(analysis.HintUS))
	}},
	{"cvm", func(r *Result, resamples int) string {
		return report.Significance(r.Agg.LocationSignificance(resamples, r.Seed))
	}},
	{"table2", func(r *Result, _ int) string {
		kw := r.Agg.KeywordInference(r.Contents, r.DropWords)
		return report.Table2(kw.TopSearched(10), kw.TopCorpus(10))
	}},
	{"cases", func(r *Result, _ int) string {
		return report.CaseStudies(r.Blackmailers, len(r.Agg.Drafts), r.Inquiries)
	}},
	{"sophistication", func(r *Result, resamples int) string {
		return report.Sophistication(r.Agg.ConfigRows(), r.Agg.LocationSignificance(resamples, r.Seed))
	}},
}

// Sections returns the sections a result renders, in report order:
// the paper's artifacts, plus defender when the run armed the C3
// loop — so a defender-free run renders byte-identically to one from a
// build without the subsystem.
func Sections(r *Result) []Section {
	out := append([]Section(nil), paperSections...)
	if len(r.Defender) > 0 {
		out = append(out, Section{"defender", func(r *Result, _ int) string {
			return report.Defender(DefenderRows(r.Defender))
		}})
	}
	return out
}

// RenderSections renders every section of a result under its
// "===== id =====" banner — the body cmd/honeynet prints for
// -experiment all.
func RenderSections(r *Result, resamples int) string {
	var b strings.Builder
	for _, s := range Sections(r) {
		fmt.Fprintf(&b, "===== %s =====\n%s\n", s.ID, s.Render(r, resamples))
	}
	return b.String()
}

// RenderFullReport renders a scenario result as a header line followed
// by the complete section sequence cmd/honeynet prints for a single
// run, from the merged aggregates alone. The output is a pure function
// of the result, which is what lets the golden-report corpus pin it
// byte for byte.
func RenderFullReport(r *Result, resamples int) (string, error) {
	if r == nil {
		return "", fmt.Errorf("scenario: nil result")
	}
	if r.Err != nil {
		return "", r.Err
	}
	header := fmt.Sprintf("scenario %s (seed %d, scale %d)\n\n", r.Spec.Name, r.Seed, r.Scale)
	return header + RenderSections(r, resamples), nil
}

// table1Rows lists the deployment's group sizes in group order.
func table1Rows(counts map[int]int) []report.Table1Row {
	ids := make([]int, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	rows := make([]report.Table1Row, 0, len(ids))
	for _, id := range ids {
		rows = append(rows, report.Table1Row{Group: id, Count: counts[id], Label: honeynet.PaperGroupLabel(id)})
	}
	return rows
}

// DefenderRows converts the engine's detection-race outcomes to the
// report's neutral rows (report does not import the simulation).
func DefenderRows(outcomes []honeynet.DefenderOutcome) []report.DefenderRow {
	rows := make([]report.DefenderRow, 0, len(outcomes))
	for _, o := range outcomes {
		rows = append(rows, report.DefenderRow{
			Account:    o.Account,
			Group:      o.Group.Label,
			Channel:    string(o.Group.Channel),
			LeakAt:     o.LeakAt,
			Detected:   o.Detected,
			DetectedAt: o.DetectedAt,
			Exploited:  o.Exploited,
			ExploitAt:  o.ExploitAt,
		})
	}
	return rows
}
