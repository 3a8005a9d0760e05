// Package analysis implements the paper's measurement pipeline over
// the monitoring observations. Paper-section map:
//
//   - §4.2 taxonomy (curious / gold digger / spammer / hijacker):
//     Class, Classify and the time-window attribution in taxonomy.go.
//   - §4.3 timing (Figures 1, 3, 4): Aggregates.Durations,
//     Aggregates.TimeToAccess, Aggregates.Timeline.
//   - §4.4 system configuration: Aggregates.ConfigRows, classifyUA.
//   - §4.5 location (Figure 5) and Cramér–von Mises significance:
//     Aggregates.MedianRadii, Aggregates.LocationSignificance, cvm.go.
//   - §4.6 keyword inference (Table 2): Aggregates.KeywordInference,
//     tfidf.go.
//
// The package consumes only the observables a real deployment would
// have — activity-page rows, script notifications, scrape failures,
// and the researchers' own knowledge of the leak plan — so it can be
// pointed at logs from an actual honey-account deployment unchanged.
//
// Every figure derives from one place, the mergeable Aggregates
// (stream.go). The engine feeds each shard's observations through a
// StreamClassifier while the simulation runs and merges per-shard
// Aggregates at the end — O(shards) merge work, no global dataset.
// Records gathered elsewhere enter as a Dataset through
// AggregatesFromDataset. The tests hold a record-level reference of
// every number (reference_test.go) and compare the aggregates with it.
package analysis
