package report_test

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/report"
)

// Rendering a fixed-width table, the primitive every paper artifact
// (Tables 1–2, Figures 2 and 4, the overview) is printed with.
func ExampleNewTable() {
	t := report.NewTable("outlet", "accesses", "hijacker")
	t.AddRow("paste", "144", "21")
	t.AddRow("forum", "38", "9")
	fmt.Print(t.String())
	// Output:
	// outlet  accesses  hijacker
	// ------  --------  --------
	// paste   144       21
	// forum   38        9
}

// Figure 2's taxonomy-per-outlet table from the per-outlet class
// tallies of analysis.Aggregates.
func ExampleFigure2() {
	per := map[analysis.Outlet]analysis.ClassCounts{
		analysis.OutletPaste: {Total: 4, Curious: 2, GoldDigger: 1, Hijacker: 1},
		analysis.OutletForum: {Total: 2, Curious: 1, Spammer: 1},
	}
	fmt.Print(report.Figure2(per))
	// Output:
	// Figure 2: distribution of access types per outlet
	// outlet  accesses  curious  gold-digger  spammer  hijacker
	// ------  --------  -------  -----------  -------  --------
	// paste   4         2 (50%)  1 (25%)      0 (0%)   1 (25%)
	// forum   2         1 (50%)  0 (0%)       1 (50%)  0 (0%)
}
