package report

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/stats"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("a", "bb", "ccc")
	tb.AddRow("1", "2", "3")
	tb.AddRow("long-cell", "x") // short row padded
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want header+sep+2 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "a") || !strings.Contains(lines[0], "bb") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Fatalf("separator = %q", lines[1])
	}
	// Columns align: every line has the same prefix width up to col 2.
	if len(lines[2]) < len("long-cell") {
		t.Fatalf("row = %q", lines[2])
	}
}

func TestCDFSeries(t *testing.T) {
	out := CDFSeries("paste", []float64{1, 2, 3, 4}, []float64{2, 10})
	if !strings.Contains(out, "n=4") || !strings.Contains(out, "P(x<=2)=0.50") || !strings.Contains(out, "P(x<=10)=1.00") {
		t.Fatalf("series = %q", out)
	}
	if got := CDFSeries("empty", nil, []float64{1}); !strings.Contains(got, "(empty)") {
		t.Fatalf("empty series = %q", got)
	}
}

func TestOverviewIncludesPaperColumn(t *testing.T) {
	out := Overview(analysis.Overview{UniqueAccesses: 200, EmailsRead: 150})
	for _, want := range []string{"unique accesses", "200", "327", "147", "paper"} {
		if !strings.Contains(out, want) {
			t.Fatalf("overview missing %q:\n%s", want, out)
		}
	}
}

// sketchOf folds a sample into a sketch over the given probes.
func sketchOf(probes []float64, sample ...float64) *stats.ProbeSketch {
	sk := stats.NewProbeSketch(probes)
	for _, v := range sample {
		sk.Add(v)
	}
	return sk
}

func TestFigureRenderers(t *testing.T) {
	f1 := Figure1Sketches(map[string]*stats.ProbeSketch{
		"curious":  sketchOf(analysis.DurationProbes, 0.1, 0.2),
		"hijacker": sketchOf(analysis.DurationProbes, 24, 48),
	})
	if !strings.Contains(f1, "curious") || !strings.Contains(f1, "hijacker") {
		t.Fatalf("figure1 = %q", f1)
	}
	f2 := Figure2(map[analysis.Outlet]analysis.ClassCounts{
		analysis.OutletPaste: {Total: 10, Curious: 6, GoldDigger: 2, Spammer: 1, Hijacker: 2},
	})
	if !strings.Contains(f2, "paste") || !strings.Contains(f2, "20%") {
		t.Fatalf("figure2 = %q", f2)
	}
	f3 := Figure3Sketches(map[analysis.Outlet]*stats.ProbeSketch{
		analysis.OutletMalware: sketchOf(analysis.LeakDaysProbes, 10, 30, 120),
	})
	if !strings.Contains(f3, "malware") {
		t.Fatalf("figure3 = %q", f3)
	}
	f4 := Figure4Buckets(map[analysis.Outlet]map[int]int{
		analysis.OutletPaste:   {0: 1},
		analysis.OutletMalware: {10: 1},
	}, 10)
	if !strings.Contains(f4, "100-109") {
		t.Fatalf("figure4 = %q", f4)
	}
	f5 := Figure5("UK", []analysis.RadiusRow{
		{Group: analysis.GroupKey{Outlet: analysis.OutletPaste, Hint: analysis.HintUK}, N: 12, MedianKm: 1400},
	})
	if !strings.Contains(f5, "1400") || !strings.Contains(f5, "paste/uk") {
		t.Fatalf("figure5 = %q", f5)
	}
}

func TestSignificanceIncludesPaperValues(t *testing.T) {
	out := Significance([]analysis.SignificanceRow{
		{Outlet: analysis.OutletPaste, Region: analysis.HintUK,
			Result: analysis.CvMResult{T: 0.5, P: 0.002, RejectAt001: true}},
	})
	if !strings.Contains(out, "paste/uk") || !strings.Contains(out, "p=0.0017 reject") {
		t.Fatalf("significance = %q", out)
	}
}

func TestTable2Renders(t *testing.T) {
	out := Table2(
		[]analysis.TermScore{{Term: "bitcoin", Delta: 0.19}},
		[]analysis.TermScore{{Term: "transfer", All: 0.29}, {Term: "company", All: 0.15}},
	)
	if !strings.Contains(out, "bitcoin") || !strings.Contains(out, "transfer") || !strings.Contains(out, "company") {
		t.Fatalf("table2 = %q", out)
	}
}

func TestSystemConfigAndSophistication(t *testing.T) {
	rows := []analysis.ConfigRow{
		{Outlet: analysis.OutletMalware, Accesses: 5, EmptyUA: 5},
		{Outlet: analysis.OutletPaste, Accesses: 10, EmptyUA: 1, Android: 2, Desktop: 7},
	}
	sc := SystemConfig(rows)
	if !strings.Contains(sc, "malware") {
		t.Fatalf("sysconfig = %q", sc)
	}
	soph := Sophistication(rows, []analysis.SignificanceRow{
		{Outlet: analysis.OutletPaste, Region: analysis.HintUK, Result: analysis.CvMResult{RejectAt001: true}},
	})
	if !strings.Contains(soph, "yes") {
		t.Fatalf("sophistication = %q", soph)
	}
}
