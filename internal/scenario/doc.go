// Package scenario turns the single-reproduction harness into a
// multi-experiment platform: declarative, validated experiment
// variants ("scenarios") that run concurrently on a shared worker
// budget and get compared in one report.
//
// The paper's findings (§4.2–§4.8) all come from one configuration —
// the Table 1 plan, one leak date, English decoys, a fixed outlet
// mix. A Spec varies any of those axes without touching Go code: plan
// composition, outlet catalogue and cadence, attacker-calibration
// overrides per channel, decoy locale/timezone, leak date, scan and
// scrape cadences, the §4.7 case studies and the C3 defender. Specs
// are strict JSON, one format for the embedded named presets (Preset,
// e.g. "baseline", "paste-only", "malware-heavy") and for user files
// (LoadFile); both go through ParseJSON.
//
// RunMatrix executes N scenarios concurrently: every scenario keeps
// the sharded engine's determinism contract (per-scenario seeds via
// rng stable derivation, simtime.ShardSet shards inside each
// scenario) while all scenarios draw shard workers from one
// simtime.WorkerPool, so matrix wall-clock cost is bounded however
// wide the matrix is. A scenario's aggregates are bit-identical to
// running it alone with the same seed (TestMatrixMatchesSolo).
//
// Artifacts (one canonical JSON file per scenario, WriteArtifacts)
// support cross-run diffing; report.Comparative renders per-scenario
// aggregate columns with deltas against the baseline column (class
// tallies, §4.3 duration CDFs, §4.5 location tables).
package scenario
