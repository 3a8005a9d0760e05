// Command webmaild serves the webmail platform over TCP, as one shard
// of a live fleet booted from a honeynet snapshot file, or as the
// router in front of such shards. On SIGTERM/SIGINT it drains:
// the listener closes, idle connections drop, and in-flight requests
// finish before the process exits.
//
// Usage:
//
//	webmaild -snapshot state.snap [-addr host:port] [-partition I -partitions N] [-abuse=false] [-creds out.txt]
//	webmaild -router -shards host:port,host:port [-addr host:port]
//	         [-health-interval D] [-health-timeout D]
//
// A shard restores only the accounts that webmail.PartitionIndex places
// on -partition of -partitions — the same placement the livefleet
// router uses, so a router in front of N such shards finds every
// account. -creds writes the restored "address password" lines for
// loadgen and c3d.
//
// With -router, the process serves the partition-aware front instead
// of a shard: it pools connections to the listed shard addresses
// (whose order must match their -partition indices), routes each login
// by account hash, and applies per-connection backpressure. A
// per-shard health prober (-health-interval/-health-timeout) marks
// dead shards down so logins to them fail fast, evicts their pools,
// and flips them back up when they return; backend dials to a down
// shard back off exponentially. The same SIGTERM drain semantics
// apply, and a draining router prints its fleet-health section
// (per-shard dials, retries, evictions, down/up transitions).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/livefleet"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/webmail"
)

type config struct {
	addr string

	snapshotPath string
	partition    int
	partitions   int
	abuse        bool
	credsOut     string

	routerMode     bool
	shards         string
	healthInterval time.Duration
	healthTimeout  time.Duration

	drainTimeout time.Duration
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("webmaild", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8025", "listen address")
	fs.StringVar(&cfg.snapshotPath, "snapshot", "", "boot the account store from this snapshot file (required for a shard)")
	fs.IntVar(&cfg.partition, "partition", 0, "this shard's index (with -snapshot)")
	fs.IntVar(&cfg.partitions, "partitions", 1, "total shards in the fleet (with -snapshot)")
	fs.BoolVar(&cfg.abuse, "abuse", true, "enforce send-rate abuse detection (the virtual clock is static, so the window never slides)")
	fs.StringVar(&cfg.credsOut, "creds", "", "write restored account credentials to this file")
	fs.BoolVar(&cfg.routerMode, "router", false, "serve as the fleet router instead of a shard")
	fs.StringVar(&cfg.shards, "shards", "", "comma-separated shard addresses, in partition order (with -router)")
	fs.DurationVar(&cfg.healthInterval, "health-interval", time.Second, "shard health-probe cadence (with -router); negative disables the prober")
	fs.DurationVar(&cfg.healthTimeout, "health-timeout", time.Second, "per-probe deadline, dial included (with -router)")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if cfg.routerMode && cfg.shards == "" {
		return config{}, fmt.Errorf("webmaild: -router requires -shards")
	}
	if !cfg.routerMode && cfg.snapshotPath == "" {
		return config{}, fmt.Errorf("webmaild: a shard requires -snapshot")
	}
	return cfg, nil
}

// server is the piece an instance drains on shutdown — either a shard
// (*webmail.Server) or the fleet front (*livefleet.Router).
type server interface {
	Drain(ctx context.Context) error
	Close() error
}

// instance is a started webmaild, exposed for the integration tests.
type instance struct {
	Addr   string
	Svc    *webmail.Service  // nil in router mode
	Router *livefleet.Router // nil outside router mode
	srv    server
	cfg    config
	out    io.Writer
}

// startRouter boots the partition-aware front over the given shards.
func startRouter(cfg config, out io.Writer) (*instance, error) {
	router, err := livefleet.NewRouter(livefleet.RouterConfig{
		Shards:         strings.Split(cfg.shards, ","),
		HealthInterval: cfg.healthInterval,
		HealthTimeout:  cfg.healthTimeout,
	})
	if err != nil {
		return nil, err
	}
	bound, err := router.Listen(cfg.addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "webmaild router listening on %s, fronting %d shards\n", bound, router.Shards())
	return &instance{Addr: bound, Router: router, srv: router, cfg: cfg, out: out}, nil
}

// start boots the service from the snapshot, begins listening, and
// returns the running instance.
func start(cfg config, out io.Writer) (*instance, error) {
	if cfg.routerMode {
		return startRouter(cfg, out)
	}
	wcfg := webmail.Config{
		Clock: simtime.NewClock(time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)),
		Abuse: webmail.AbuseConfig{Disabled: !cfg.abuse},
	}
	svc, creds, err := livefleet.BootService(cfg.snapshotPath, cfg.partition, cfg.partitions, wcfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "booted %d accounts from %s (shard %d of %d)\n",
		len(creds), cfg.snapshotPath, cfg.partition, cfg.partitions)
	if cfg.credsOut != "" {
		f, err := os.Create(cfg.credsOut)
		if err != nil {
			return nil, err
		}
		if err := livefleet.WriteCredentials(f, creds); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}

	srv := webmail.NewServer(svc)
	bound, err := srv.Listen(cfg.addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, "webmaild listening on", bound)
	return &instance{Addr: bound, Svc: svc, srv: srv, cfg: cfg}, nil
}

// Shutdown drains the server gracefully, forcing a close when the
// context (or the configured drain timeout) expires first. A router
// renders its fleet-health section on the way out — the counters are
// final once the drain completes, and the chaos smoke test reads the
// down/up transitions from this output.
func (in *instance) Shutdown(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, in.cfg.drainTimeout)
	defer cancel()
	err := in.srv.Drain(ctx)
	if in.Router != nil && in.out != nil {
		fmt.Fprintln(in.out, report.FleetHealth(in.Router.Stats().Shards))
	}
	return err
}

// Close stops the instance immediately (tests' cleanup path).
func (in *instance) Close() error { return in.srv.Close() }

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
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
