package report

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/stats"
)

// ServingStats is one load-generation run's serving-side summary: the
// merged latency histogram plus the outcome tallies the generator
// keeps per worker. It is what cmd/loadgen hands to ServingLatency.
type ServingStats struct {
	// Label names the run (e.g. "2 shards, 64 conns, 5000 qps").
	Label string
	// Hist is the merged per-connection latency histogram.
	Hist *stats.LatencyHist
	// Requests is the number of requests attempted (including ones
	// that failed); Rejected counts application-level refusals
	// (resp.OK == false: bad password, not logged in), which are
	// expected traffic, not faults. Errors counts protocol/transport
	// faults and Timeouts counts deadline expiries — both are faults.
	// Unavailable counts down-shard refusals (shard down / shard
	// unavailable / shard connection lost) tallied separately when the
	// generator runs in tolerate-unavailable mode: expected during a
	// chaos replay, faults otherwise.
	Requests    int64
	Rejected    int64
	Errors      int64
	Timeouts    int64
	Unavailable int64
	// Elapsed is the wall-clock span of the run, for throughput.
	Elapsed time.Duration
}

// Add merges o's histogram and tallies into s; s keeps its Label and
// Elapsed. Each worker of a run fills its own ServingStats, and the run
// adds them up.
func (s *ServingStats) Add(o *ServingStats) {
	if s.Hist == nil {
		s.Hist = &stats.LatencyHist{}
	}
	s.Hist.Merge(o.Hist)
	s.Requests += o.Requests
	s.Rejected += o.Rejected
	s.Errors += o.Errors
	s.Timeouts += o.Timeouts
	s.Unavailable += o.Unavailable
}

// Throughput returns achieved requests per second (0 for an empty or
// instantaneous run).
func (s ServingStats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Requests) / s.Elapsed.Seconds()
}

// ServingLatency renders the serving-latency section: one row per run
// with achieved throughput, the HDR quantiles, and the fault tallies.
// The live-fleet smoke test greps this output, so the header strings
// are part of the CI contract.
func ServingLatency(runs []ServingStats) string {
	var b strings.Builder
	b.WriteString("Serving latency (live fleet)\n")
	tbl := NewTable("run", "req", "req/s", "p50", "p95", "p99", "max", "rejected", "unavail", "errors", "timeouts")
	for _, r := range runs {
		h := r.Hist
		if h == nil {
			h = &stats.LatencyHist{}
		}
		tbl.AddRow(
			r.Label,
			fmt.Sprintf("%d", r.Requests),
			fmt.Sprintf("%.0f", r.Throughput()),
			fmtLatency(h.Quantile(0.50)),
			fmtLatency(h.Quantile(0.95)),
			fmtLatency(h.Quantile(0.99)),
			fmtLatency(h.Max()),
			fmt.Sprintf("%d", r.Rejected),
			fmt.Sprintf("%d", r.Unavailable),
			fmt.Sprintf("%d", r.Errors),
			fmt.Sprintf("%d", r.Timeouts),
		)
	}
	b.WriteString(tbl.String())
	return b.String()
}

// fmtLatency renders a duration at a fixed, comparable precision:
// microseconds below 1ms, fractional milliseconds below 1s, seconds
// above. Scientific notation and ns noise would defeat eyeballing a
// regression across CI runs.
func fmtLatency(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
