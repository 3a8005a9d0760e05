package analysis_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/honeynet"
)

// engineTestConfig is a 90-day run small enough to repeat at several
// shard counts, busy enough to fill every aggregate.
func engineTestConfig(seed int64, shards int) honeynet.Config {
	return honeynet.Config{
		Seed:           seed,
		Shards:         shards,
		Duration:       90 * 24 * time.Hour,
		MailboxSize:    30,
		ScanInterval:   30 * time.Minute,
		ScrapeInterval: 2 * time.Hour,
	}
}

const engineTestResamples = 200

// TestStreamMatchesReference is the acceptance gate of the streaming
// pipeline: for a fixed seed, at shard counts 1 and 4, every aggregate
// the engine merges from its shard classifiers equals the record-level
// reference over the merged Experiment.Dataset(). The same records
// replayed through AggregatesFromDataset must give the engine's
// aggregates back, which holds Dataset's plan facts and blacklist
// annotation to the ones Finalize applies.
func TestStreamMatchesReference(t *testing.T) {
	const seed = 77
	for _, shards := range []int{1, 4} {
		exp, err := honeynet.New(engineTestConfig(seed, shards))
		if err != nil {
			t.Fatal(err)
		}
		if err := exp.RunAll(); err != nil {
			t.Fatal(err)
		}
		agg, err := exp.Aggregates()
		if err != nil {
			t.Fatal(err)
		}
		if agg.Classes.Total == 0 || agg.EmailsRead == 0 {
			t.Fatalf("shards=%d: implausible aggregates %+v", shards, agg.Overview())
		}
		ds := exp.Dataset()
		contents, drop := exp.SeededContents(), exp.DropWords()
		if err := analysis.MatchesReference(agg, ds, contents, drop, engineTestResamples, seed); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if err := sameAggregates(agg, analysis.AggregatesFromDataset(ds), contents, drop); err != nil {
			t.Fatalf("shards=%d: AggregatesFromDataset(Dataset()) differs from Aggregates(): %v", shards, err)
		}
	}
}

// sameAggregates compares two aggregates field by field: tallies,
// sketches, timeline, config rows, sorted distance vectors, overview
// and Table 2. It returns the first difference, or nil.
func sameAggregates(want, got *analysis.Aggregates, contents analysis.ContentsView, dropWords []string) error {
	wantKW, gotKW := want.KeywordInference(contents, dropWords), got.KeywordInference(contents, dropWords)
	checks := []struct {
		what      string
		want, got any
	}{
		{"class counts", want.Classes, got.Classes},
		{"per-outlet counts", want.PerOutlet, got.PerOutlet},
		{"duration sketches", want.Durations, got.Durations},
		{"time-to-access sketches", want.TimeToAccess, got.TimeToAccess},
		{"timeline", want.Timeline, got.Timeline},
		{"timeline max", want.TimelineMax, got.TimelineMax},
		{"config rows", want.ConfigRows(), got.ConfigRows()},
		{"UK distance vectors", want.DistanceVectorsFor(analysis.HintUK), got.DistanceVectorsFor(analysis.HintUK)},
		{"US distance vectors", want.DistanceVectorsFor(analysis.HintUS), got.DistanceVectorsFor(analysis.HintUS)},
		{"overview", want.Overview(), got.Overview()},
		{"Table 2 searched words", wantKW.TopSearched(10), gotKW.TopSearched(10)},
		{"Table 2 corpus words", wantKW.TopCorpus(10), gotKW.TopCorpus(10)},
	}
	for _, c := range checks {
		if !reflect.DeepEqual(c.got, c.want) {
			return fmt.Errorf("%s %+v, want %+v", c.what, c.got, c.want)
		}
	}
	return nil
}
