package report

import (
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestServingLatencySection(t *testing.T) {
	var h stats.LatencyHist
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * 100 * time.Microsecond) // 0.1ms..100ms
	}
	out := ServingLatency([]ServingStats{{
		Label:    "2 shards",
		Hist:     &h,
		Requests: 1000,
		Rejected: 7,
		Errors:   0,
		Timeouts: 0,
		Elapsed:  2 * time.Second,
	}})
	for _, want := range []string{"Serving latency (live fleet)", "p99", "2 shards", "500", "req/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("section missing %q:\n%s", want, out)
		}
	}
}

// TestServingLatencyNilHist: a run whose workers never completed a
// request renders zeros instead of panicking.
func TestServingLatencyNilHist(t *testing.T) {
	out := ServingLatency([]ServingStats{{Label: "dead", Requests: 0}})
	if !strings.Contains(out, "dead") {
		t.Fatalf("missing label:\n%s", out)
	}
}

func TestServingStatsThroughput(t *testing.T) {
	s := ServingStats{Requests: 500, Elapsed: 2 * time.Second}
	if got := s.Throughput(); got != 250 {
		t.Fatalf("throughput = %g, want 250", got)
	}
	if got := (ServingStats{Requests: 5}).Throughput(); got != 0 {
		t.Fatalf("zero-elapsed throughput = %g, want 0", got)
	}
}

// TestServingStatsAdd: workers' stats add up into the run's. The
// histograms merge and every tally sums; the run keeps its own label
// and span.
func TestServingStatsAdd(t *testing.T) {
	worker := ServingStats{Label: "w0", Hist: &stats.LatencyHist{}, Requests: 3, Rejected: 1, Errors: 1, Timeouts: 1, Unavailable: 1, Elapsed: time.Hour}
	worker.Hist.Record(time.Millisecond)
	run := ServingStats{Label: "run", Elapsed: time.Second}
	run.Add(&worker)
	run.Add(&ServingStats{Requests: 2, Unavailable: 4}) // recorded no latency
	if run.Hist.Count() != 1 || run.Hist.Max() != time.Millisecond {
		t.Fatalf("merged histogram holds %d samples, max %v; want the worker's one 1ms sample", run.Hist.Count(), run.Hist.Max())
	}
	run.Hist = nil
	want := ServingStats{Label: "run", Requests: 5, Rejected: 1, Errors: 1, Timeouts: 1, Unavailable: 5, Elapsed: time.Second}
	if run != want {
		t.Fatalf("sum %+v, want %+v", run, want)
	}
}

func TestFmtLatency(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{250 * time.Microsecond, "250µs"},
		{1500 * time.Microsecond, "1.50ms"},
		{2500 * time.Millisecond, "2.50s"},
	}
	for _, c := range cases {
		if got := fmtLatency(c.d); got != c.want {
			t.Fatalf("fmtLatency(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}
