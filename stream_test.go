// Stream-equals-batch: the streaming classification pipeline (per-
// shard incremental classifiers merged as O(shards) aggregates) must
// render every table and figure byte-identically to the record-level
// analysis functions run over the merged Dataset (classify post hoc)
// for the same seed, at any shard count. This is the determinism
// guarantee that lets fleet-scale runs skip the merged dataset
// entirely without changing a single reported number.
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

// renderBatchReport renders every section through the record-level
// functions over the merged Dataset — the reference oracle.
func renderBatchReport(exp *honeynet.Experiment, seed int64) string {
	ds := exp.Dataset()
	cs := analysis.Classify(ds, analysis.ClassifyOptions{})
	kw := analysis.KeywordInference(ds, exp.DropWords())
	drafts := 0
	for _, a := range ds.Actions {
		if a.Kind == analysis.ActionDraft {
			drafts++
		}
	}
	var b strings.Builder
	b.WriteString(report.Overview(analysis.Summarize(ds)))
	b.WriteString(report.Figure1(analysis.DurationsByClass(cs)))
	b.WriteString(report.Figure2(analysis.ByOutlet(cs)))
	b.WriteString(report.Figure3(analysis.TimeToFirstAccess(ds)))
	b.WriteString(report.Figure4(analysis.Timeline(ds)))
	b.WriteString(report.Figure5("UK/London", analysis.MedianRadii(ds, analysis.HintUK)))
	b.WriteString(report.Figure5("US/Pontiac", analysis.MedianRadii(ds, analysis.HintUS)))
	b.WriteString(report.Significance(analysis.LocationSignificance(ds, streamTestResamples, seed)))
	b.WriteString(report.SystemConfig(analysis.SystemConfiguration(ds)))
	b.WriteString(report.Table2(kw.TopSearched(10), kw.TopCorpus(10)))
	b.WriteString(report.Sophistication(
		analysis.SystemConfiguration(ds),
		analysis.LocationSignificance(ds, streamTestResamples, seed)))
	fmt.Fprintf(&b, "drafts=%d\n", drafts)
	return b.String()
}

// renderStreamReport renders the same sections from the merged
// per-shard streaming aggregates, never touching the Dataset.
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

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  batch:  %q\n  stream: %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length differs: %d vs %d lines", len(al), len(bl))
}

// TestStreamMatchesBatchReports is the acceptance gate of the
// streaming pipeline: for a fixed seed, the aggregates and the
// record-level functions over the Dataset render byte-identical
// reports at shard counts 1 and 4, and the streaming report itself is
// shard-count invariant.
func TestStreamMatchesBatchReports(t *testing.T) {
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
		batch := renderBatchReport(exp, seed)
		stream := renderStreamReport(t, exp, seed)
		if batch != stream {
			t.Fatalf("shards=%d: stream report differs from batch report\n%s", shards, firstDiff(batch, stream))
		}
		if len(stream) == 0 || !strings.Contains(stream, "unique accesses") {
			t.Fatalf("shards=%d: implausible report:\n%s", shards, stream)
		}
		reports[shards] = stream
	}
	if reports[1] != reports[4] {
		t.Fatalf("streaming report changes with shard count\n%s", firstDiff(reports[1], reports[4]))
	}
}
