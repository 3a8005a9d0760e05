// Package honeynet is the core of the reproduction: the end-to-end
// honey-account experiment of the paper. Paper-section map:
//
//   - §3.2 Table 1: the deployment plan (plan.go) — 100 accounts
//     across paste sites, underground forums and info-stealing
//     malware, with and without decoy-location hints.
//   - §3.2 honey account setup: Setup seeds Enron-style mailboxes,
//     installs the hidden monitoring scripts, starts the scrapers.
//   - §3.2 leaking account credentials: Leak publishes each block's
//     credentials through its channel.
//   - §4.7 case studies: scheduled blackmail, quota-notice and
//     carding-forum scenarios.
//   - §4.1–§4.6: Aggregates exports what internal/report renders;
//     Dataset exports the underlying records.
//
// The engine is sharded for fleet-scale runs: the experiment plan is
// partitioned across Config.Shards parallel schedulers (see shard.go
// for the shard/block split), and each shard drives its own webmail
// platform (a webmail.Service holding exactly its blocks' accounts),
// monitoring pipeline and sinkhole; Experiment.Service finds an
// account's platform. For a fixed seed the results are independent of
// the shard count, because every stochastic stream derives from the
// owning plan block, not from the shard executing it.
// Config.ScaleFactor replicates the plan K× to simulate
// 100·K-account deployments.
//
// Every shard classifies its accesses while simulated time advances
// (stream.go). Aggregates merges one aggregate per shard — O(shards) —
// and is what every report renders from. Dataset rebuilds the merged
// record-level analysis.Dataset (the paper's post-hoc shape) from the
// observations the same classifiers retain, as input for record-level
// checks and for analysis.AggregatesFromDataset.
package honeynet
