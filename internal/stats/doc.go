// Package stats provides the statistical toolkit the paper's figures
// and the serving lanes are built from:
//
//   - §4.3 (Figures 1 and 3): ProbeSketch, the mergeable fixed-grid CDF
//     sketch the streaming pipeline fills per shard, and ECDF, the
//     exact empirical CDF the tests hold the sketch to. Both give
//     identical values at the figures' probe points.
//   - Serving: LatencyHist, the mergeable HDR histogram the load
//     generators record request latency in, and Counter and Highwater,
//     the atomic tallies behind the router's fleet-health table.
//
// The package is deliberately simulator-agnostic: it sees plain
// float64 samples and counters, never experiment types.
package stats
