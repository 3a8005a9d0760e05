// Command c3d serves the compromised-credential-checking (C3) index
// over TCP: k-anonymity hash-prefix range queries on the repo's
// newline-JSON wire protocol (docs/WIRE_PROTOCOL.md). The index is
// built at boot from any mix of a honeynet snapshot, an
// "address password" credentials file, and synthetic fleet-scale
// fill, then served read-only. On SIGTERM/SIGINT it drains: the
// listener closes, idle connections drop, and in-flight requests
// finish before the process exits.
//
// Usage:
//
//	c3d -snapshot state.snap [-addr host:port] [-bucket-bits N] [-variants]
//	c3d -creds leaked.txt [-synthetic N] [-seed N]
//	c3d -replay -addr host:port [-queries N] [-conns N] [-qps N] [-timeout D]
//
// With -replay, the process is a deterministic query load generator
// instead of a server: it replays seed-derived range queries against
// -addr, prints the serving-latency section and an "achieved N req/s"
// line, and exits non-zero on any protocol error or timeout — the
// exit code CI's c3-smoke job gates on.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/c3"
	"repro/internal/livefleet"
	"repro/internal/report"
)

type config struct {
	addr         string
	snapshotPath string
	credsPath    string
	synthetic    int
	seed         int64
	bucketBits   int
	variants     bool
	drainTimeout time.Duration

	replay  bool
	queries int
	conns   int
	qps     float64
	timeout time.Duration
	label   string
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("c3d", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8033", "listen address (serve) or target address (-replay)")
	fs.StringVar(&cfg.snapshotPath, "snapshot", "", "index every decoy credential from this honeynet snapshot file")
	fs.StringVar(&cfg.credsPath, "creds", "", "index an \"address password\" lines file (webmaild -creds format; blank and # lines skipped)")
	fs.IntVar(&cfg.synthetic, "synthetic", 0, "additionally index N deterministic synthetic credentials")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for -synthetic credentials and the -replay query plan")
	fs.IntVar(&cfg.bucketBits, "bucket-bits", c3.DefaultBucketBits, "k-anonymity prefix width: queries name one of 2^bits buckets")
	fs.BoolVar(&cfg.variants, "variants", false, "MIGP-style mode: also index deterministic password mutations")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
	fs.BoolVar(&cfg.replay, "replay", false, "replay deterministic range queries against -addr instead of serving")
	fs.IntVar(&cfg.queries, "queries", 10000, "total range queries (with -replay)")
	fs.IntVar(&cfg.conns, "conns", 16, "concurrent connections (with -replay)")
	fs.Float64Var(&cfg.qps, "qps", 0, "aggregate offered rate, open-loop; 0 = closed loop (with -replay)")
	fs.DurationVar(&cfg.timeout, "timeout", 5*time.Second, "per-query deadline (with -replay)")
	fs.StringVar(&cfg.label, "label", "", "report row label (with -replay)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if !cfg.replay && cfg.snapshotPath == "" && cfg.credsPath == "" && cfg.synthetic == 0 {
		return config{}, fmt.Errorf("c3d: nothing to serve — give -snapshot, -creds and/or -synthetic")
	}
	return cfg, nil
}

// instance is a started c3d server, exposed for the integration tests.
type instance struct {
	Addr  string
	Store *c3.Store
	srv   *c3.Server
	cfg   config
}

// start builds the index from the configured sources and begins
// listening.
func start(cfg config, out io.Writer) (*instance, error) {
	store, err := c3.New(c3.Config{BucketBits: cfg.bucketBits, Variants: cfg.variants})
	if err != nil {
		return nil, err
	}
	if cfg.snapshotPath != "" {
		n, err := c3.BuildFromSnapshotFile(cfg.snapshotPath, store)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "indexed %d credentials from %s\n", n, cfg.snapshotPath)
	}
	if cfg.credsPath != "" {
		f, err := os.Open(cfg.credsPath)
		if err != nil {
			return nil, err
		}
		creds, err := livefleet.ReadCredentials(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("c3d: %s: %w", cfg.credsPath, err)
		}
		for _, c := range creds {
			store.Add(c.Address, c.Password, "creds-file", time.Unix(0, 0))
		}
		fmt.Fprintf(out, "indexed %d credentials from %s\n", len(creds), cfg.credsPath)
	}
	if cfg.synthetic > 0 {
		c3.Synthetic(cfg.seed, cfg.synthetic, func(a, p string) {
			store.Add(a, p, "synthetic", time.Unix(0, 0))
		})
		fmt.Fprintf(out, "indexed %d synthetic credentials (seed %d)\n", cfg.synthetic, cfg.seed)
	}
	srv := c3.NewServer(store)
	bound, err := srv.Listen(cfg.addr)
	if err != nil {
		return nil, err
	}
	st := store.Stats()
	fmt.Fprintf(out, "c3d listening on %s: %d entries, %d bucket bits, variants=%v\n",
		bound, st.Credentials, st.BucketBits, st.Variants)
	return &instance{Addr: bound, Store: store, srv: srv, cfg: cfg}, nil
}

// Shutdown drains the server gracefully, forcing a close when the
// drain timeout expires first.
func (in *instance) Shutdown(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, in.cfg.drainTimeout)
	defer cancel()
	return in.srv.Drain(ctx)
}

// Close stops the instance immediately (tests' cleanup path).
func (in *instance) Close() error { return in.srv.Close() }

// runReplay drives the deterministic query replay and prints the
// serving-latency section. The fixed "achieved" line format is parsed
// by scripts/c3_smoke.sh.
func runReplay(cfg config, out io.Writer) error {
	stats, err := c3.Replay(c3.ReplayConfig{
		Addr: cfg.addr, Queries: cfg.queries, Conns: cfg.conns,
		QPS: cfg.qps, Seed: cfg.seed, Timeout: cfg.timeout, Label: cfg.label,
	})
	fmt.Fprint(out, report.ServingLatency([]report.ServingStats{stats}))
	fmt.Fprintf(out, "achieved %.0f req/s (%d requests in %s)\n",
		stats.Throughput(), stats.Requests, stats.Elapsed.Round(time.Millisecond))
	return err
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if cfg.replay {
		if err := runReplay(cfg, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	inst, err := start(cfg, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("draining")
	if err := inst.Shutdown(context.Background()); err != nil {
		log.Printf("drain: %v (forced close)", err)
	}
	fmt.Println("shut down")
}
