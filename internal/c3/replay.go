package c3

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/wire"
)

// ReplayConfig shapes a deterministic range-query replay against a
// running c3 server — the loadgen counterpart for the credential-
// checking path. The whole query plan derives from the seed: same
// seed, same prefixes in the same per-connection order.
type ReplayConfig struct {
	Addr    string        // server to load (required)
	Queries int           // total range queries across all connections
	Conns   int           // concurrent connections
	QPS     float64       // aggregate offered rate; 0 = closed loop
	Seed    int64         // plan seed
	Timeout time.Duration // per-query deadline (0 = none)
	Label   string        // report row label ("" derives one)
}

// Replay runs the plan and returns the merged serving stats. Any
// protocol error or timeout is also reflected in the returned error —
// the CI smoke gates on it.
func Replay(cfg ReplayConfig) (report.ServingStats, error) {
	if cfg.Addr == "" {
		return report.ServingStats{}, fmt.Errorf("c3: replay needs an address")
	}
	if cfg.Conns < 1 {
		cfg.Conns = 1
	}
	if cfg.Queries < 1 {
		cfg.Queries = 1
	}

	// One probe connection learns the bucket width so the plan can
	// draw in-range prefixes.
	probeCtx, cancel := context.WithTimeout(context.Background(), dialTimeout(cfg.Timeout))
	defer cancel()
	probe, err := Dial(probeCtx, cfg.Addr)
	if err != nil {
		return report.ServingStats{}, err
	}
	if cfg.Timeout > 0 {
		probe.SetDeadline(time.Now().Add(cfg.Timeout))
	}
	st, err := probe.Stats()
	probe.Close()
	if err != nil {
		return report.ServingStats{}, fmt.Errorf("c3: stats probe: %w", err)
	}
	buckets := uint64(1) << uint(st.BucketBits)

	results := make([]report.ServingStats, cfg.Conns)
	errs := make([]error, cfg.Conns)
	sched := wire.Schedule{Start: time.Now(), Rate: cfg.QPS, Conns: cfg.Conns}
	var wg sync.WaitGroup
	for ci := 0; ci < cfg.Conns; ci++ {
		n := cfg.Queries / cfg.Conns
		if ci < cfg.Queries%cfg.Conns {
			n++
		}
		wg.Add(1)
		go func(ci, n int) {
			defer wg.Done()
			errs[ci] = replayConn(cfg, sched, ci, n, buckets, &results[ci])
		}(ci, n)
	}
	wg.Wait()

	merged := report.ServingStats{Label: cfg.Label, Elapsed: time.Since(sched.Start)}
	if merged.Label == "" {
		merged.Label = fmt.Sprintf("c3 %d conns", cfg.Conns)
	}
	var firstErr error
	for i := range results {
		merged.Add(&results[i])
		if firstErr == nil {
			firstErr = errs[i]
		}
	}
	if firstErr != nil {
		return merged, fmt.Errorf("c3: replay saw %d errors, %d timeouts (first: %w)",
			merged.Errors, merged.Timeouts, firstErr)
	}
	return merged, nil
}

// replayConn sends connection ci's n queries on the shared schedule,
// timing each from its due time, and stops at the first failure: the
// connection's state is then unknown.
func replayConn(cfg ReplayConfig, sched wire.Schedule, ci, n int, buckets uint64, st *report.ServingStats) error {
	st.Hist = &stats.LatencyHist{}
	src := rng.New(cfg.Seed).ForkNamed(fmt.Sprintf("c3-replay:%d", ci))
	ctx, cancel := context.WithTimeout(context.Background(), dialTimeout(cfg.Timeout))
	client, err := Dial(ctx, cfg.Addr)
	cancel()
	if err != nil {
		st.Errors++
		return err
	}
	defer client.Close()
	for q := 0; q < n; q++ {
		prefix := uint64(src.Int63()) % buckets
		due, _ := sched.Wait(context.Background(), ci, q) // never cancelled
		if cfg.Timeout > 0 {
			client.SetDeadline(time.Now().Add(cfg.Timeout))
		}
		_, err := client.Range(prefix)
		st.Hist.Record(time.Since(due))
		st.Requests++
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				st.Timeouts++
			} else {
				st.Errors++
			}
			return err
		}
	}
	return nil
}

func dialTimeout(t time.Duration) time.Duration {
	if t <= 0 {
		return 10 * time.Second
	}
	return t
}
