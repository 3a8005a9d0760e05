// Package report renders the paper's tables and figures as plain-text
// artifacts: fixed-width tables for Tables 1–2 and the overview,
// inline CDF series for Figures 1 and 3, a day-bucketed timeline for
// Figure 4, and the median-radius rows of Figure 5. cmd/honeynet and
// the benchmark harness both print through this package so the output
// of `go test -bench` matches the CLI.
package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Table builds a fixed-width text table.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable starts a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == len(cells)-1 {
				b.WriteString(c) // no trailing padding on the last column
			} else {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Overview renders the §4.1/§4.5 headline numbers with the paper's
// values alongside for comparison.
func Overview(o analysis.Overview) string {
	t := NewTable("metric", "measured", "paper")
	t.AddRow("unique accesses", fmt.Sprint(o.UniqueAccesses), "327")
	t.AddRow("emails read", fmt.Sprint(o.EmailsRead), "147")
	t.AddRow("emails sent", fmt.Sprint(o.EmailsSent), "845")
	t.AddRow("unique drafts", fmt.Sprint(o.UniqueDrafts), "12")
	t.AddRow("accounts blocked", fmt.Sprint(o.SuspendedAccounts), "42")
	t.AddRow("countries", fmt.Sprint(o.Countries), "29")
	t.AddRow("accesses w/ location", fmt.Sprint(o.WithLocation), "173")
	t.AddRow("accesses w/o location", fmt.Sprint(o.WithoutLocation), "154")
	t.AddRow("blacklisted IPs", fmt.Sprint(o.BlacklistedIPs), "20")
	return t.String()
}

// Table1 renders the deployment plan blocks.
func Table1(rows []Table1Row) string {
	t := NewTable("group", "accounts", "outlet of leak")
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Group), fmt.Sprint(r.Count), r.Label)
	}
	return t.String()
}

// Table1Row is one Table 1 block.
type Table1Row struct {
	Group int
	Count int
	Label string
}

// Figure2 renders the taxonomy distribution per outlet.
func Figure2(per map[analysis.Outlet]analysis.ClassCounts) string {
	t := NewTable("outlet", "accesses", "curious", "gold-digger", "spammer", "hijacker")
	outletOrder := []analysis.Outlet{
		analysis.OutletPaste, analysis.OutletPasteRussian,
		analysis.OutletForum, analysis.OutletMalware,
	}
	for _, o := range outletOrder {
		c, ok := per[o]
		if !ok {
			continue
		}
		pct := func(n int) string {
			if c.Total == 0 {
				return "0%"
			}
			return fmt.Sprintf("%d (%.0f%%)", n, 100*float64(n)/float64(c.Total))
		}
		t.AddRow(string(o), fmt.Sprint(c.Total), pct(c.Curious), pct(c.GoldDigger), pct(c.Spammer), pct(c.Hijacker))
	}
	return "Figure 2: distribution of access types per outlet\n" + t.String()
}

// Figure5 renders the median-radius rows for one region.
func Figure5(region string, rows []analysis.RadiusRow) string {
	t := NewTable("group", "n", "median radius (km)")
	for _, r := range rows {
		hint := string(r.Group.Hint)
		if hint == "" {
			hint = "no-loc"
		}
		t.AddRow(fmt.Sprintf("%s/%s", r.Group.Outlet, hint), fmt.Sprint(r.N), fmt.Sprintf("%.0f", r.MedianKm))
	}
	return fmt.Sprintf("Figure 5 (%s midpoint): median login distance\n%s", region, t.String())
}

// Significance renders the CvM comparisons.
func Significance(rows []analysis.SignificanceRow) string {
	t := NewTable("comparison", "T", "p", "reject@0.01", "paper")
	paper := map[string]string{
		"paste/uk": "p=0.0017 reject", "paste/us": "p=7e-7 reject",
		"forum/uk": "p=0.27 keep", "forum/us": "p=0.27 keep",
	}
	for _, r := range rows {
		key := fmt.Sprintf("%s/%s", r.Outlet, r.Region)
		t.AddRow(key,
			fmt.Sprintf("%.4f", r.Result.T),
			fmt.Sprintf("%.4f", r.Result.P),
			fmt.Sprint(r.Result.RejectAt001),
			paper[key],
		)
	}
	return "Cramér–von Mises: advertised location vs none (§4.5)\n" + t.String()
}

// Table2 renders the TF-IDF ranking next to the corpus ranking.
func Table2(searched, corpusTop []analysis.TermScore) string {
	t := NewTable("searched word", "tfidfR-tfidfA", "corpus word", "tfidfA")
	n := len(searched)
	if len(corpusTop) > n {
		n = len(corpusTop)
	}
	for i := 0; i < n; i++ {
		var a, b, c, d string
		if i < len(searched) {
			a, b = searched[i].Term, fmt.Sprintf("%.4f", searched[i].Delta)
		}
		if i < len(corpusTop) {
			c, d = corpusTop[i].Term, fmt.Sprintf("%.4f", corpusTop[i].All)
		}
		t.AddRow(a, b, c, d)
	}
	return "Table 2: inferred searched words vs corpus-important words\n" + t.String()
}

// CaseStudies renders the §4.7 counters — the one format shared by
// the single-run CLI and the scenario report.
func CaseStudies(blackmailers, draftCopies, inquiries int) string {
	return fmt.Sprintf("Case studies (§4.7)\nblackmail sessions: %d\ndraft copies captured: %d\nforum inquiries: %d\n",
		blackmailers, draftCopies, inquiries)
}

// SystemConfig renders the §4.4 fingerprint breakdown.
func SystemConfig(rows []analysis.ConfigRow) string {
	t := NewTable("outlet", "accesses", "empty-UA", "android", "desktop")
	for _, r := range rows {
		t.AddRow(string(r.Outlet), fmt.Sprint(r.Accesses), fmt.Sprint(r.EmptyUA), fmt.Sprint(r.Android), fmt.Sprint(r.Desktop))
	}
	return "System configuration of accesses (§4.4)\n" + t.String()
}

// Sophistication renders the §4.8 qualitative matrix derived from the
// measured signals.
func Sophistication(rows []analysis.ConfigRow, sig []analysis.SignificanceRow) string {
	malleable := map[analysis.Outlet]bool{}
	for _, s := range sig {
		if s.Result.RejectAt001 {
			malleable[s.Outlet] = true
		}
	}
	t := NewTable("outlet", "hides config (empty UA)", "evades via location", "stealthy (no hijack/spam)")
	for _, r := range rows {
		hides := "no"
		if r.Accesses > 0 && r.EmptyUA == r.Accesses {
			hides = "yes"
		}
		evades := "no"
		if malleable[r.Outlet] {
			evades = "yes"
		}
		stealthy := "-"
		t.AddRow(string(r.Outlet), hides, evades, stealthy)
	}
	return "Attacker sophistication signals (§4.8)\n" + t.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
