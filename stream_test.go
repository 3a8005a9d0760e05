// The streaming report: every table and figure rendered from the
// merged per-shard aggregates. For a fixed seed it must not change
// with the shard count. Its agreement with the record-level reference
// over the merged Dataset is TestStreamMatchesReference in
// internal/analysis.
package repro

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/honeynet"
	"repro/internal/report"
)

func streamTestConfig(seed int64, shards int) honeynet.Config {
	return honeynet.Config{
		Seed:           seed,
		Shards:         shards,
		Duration:       90 * 24 * time.Hour,
		MailboxSize:    30,
		ScanInterval:   30 * time.Minute,
		ScrapeInterval: 2 * time.Hour,
	}
}

const streamTestResamples = 200

// renderStreamReport renders every section from the merged per-shard
// streaming aggregates, never touching the Dataset.
func renderStreamReport(t *testing.T, exp *honeynet.Experiment, seed int64) string {
	t.Helper()
	agg, err := exp.Aggregates()
	if err != nil {
		t.Fatal(err)
	}
	kw := agg.KeywordInference(exp.SeededContents(), exp.DropWords())
	var b strings.Builder
	b.WriteString(report.Overview(agg.Overview()))
	b.WriteString(report.Figure1Sketches(agg.Durations))
	b.WriteString(report.Figure2(agg.PerOutlet))
	b.WriteString(report.Figure3Sketches(agg.TimeToAccess))
	b.WriteString(report.Figure4Buckets(agg.Timeline, agg.TimelineMax))
	b.WriteString(report.Figure5("UK/London", agg.MedianRadii(analysis.HintUK)))
	b.WriteString(report.Figure5("US/Pontiac", agg.MedianRadii(analysis.HintUS)))
	b.WriteString(report.Significance(agg.LocationSignificance(streamTestResamples, seed)))
	b.WriteString(report.SystemConfig(agg.ConfigRows()))
	b.WriteString(report.Table2(kw.TopSearched(10), kw.TopCorpus(10)))
	b.WriteString(report.Sophistication(agg.ConfigRows(), agg.LocationSignificance(streamTestResamples, seed)))
	fmt.Fprintf(&b, "drafts=%d\n", len(agg.Drafts))
	return b.String()
}

// firstDiff names the first line where got departs from want.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length differs: want %d lines, got %d", len(wl), len(gl))
}

// TestStreamReportShardInvariance: for a fixed seed, the report
// rendered from the merged streaming aggregates is identical at shard
// counts 1 and 4.
func TestStreamReportShardInvariance(t *testing.T) {
	const seed = 77
	reports := map[int]string{}
	for _, shards := range []int{1, 4} {
		exp, err := honeynet.New(streamTestConfig(seed, shards))
		if err != nil {
			t.Fatal(err)
		}
		if err := exp.RunAll(); err != nil {
			t.Fatal(err)
		}
		stream := renderStreamReport(t, exp, seed)
		if len(stream) == 0 || !strings.Contains(stream, "unique accesses") {
			t.Fatalf("shards=%d: implausible report:\n%s", shards, stream)
		}
		reports[shards] = stream
	}
	if reports[1] != reports[4] {
		t.Fatalf("streaming report changes with shard count\n%s", firstDiff(reports[1], reports[4]))
	}
}
