// Command webmaild serves the webmail platform over TCP — either as a
// standalone demo (generated honey accounts) or as one shard of a live
// fleet booted from a snapshot file. On SIGTERM/SIGINT it drains:
// the listener closes, idle connections drop, and in-flight requests
// finish before the process exits.
//
// Usage:
//
//	webmaild [-addr host:port] [-accounts N] [-mailbox N] [-seed N]
//	webmaild -snapshot state.snap [-partition I -partitions N] [-abuse=false] [-creds out.txt]
//	webmaild -router -shards host:port,host:port [-addr host:port]
//	         [-health-interval D] [-health-timeout D]
//
// With -snapshot, only the accounts that webmail.PartitionIndex places
// on -partition of -partitions are restored — the same placement the
// livefleet router uses, so a router in front of N such shards finds
// every account. -creds writes the restored "address password" lines
// for the load generator.
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

	"repro/internal/corpus"
	"repro/internal/livefleet"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/snapshot"
	"repro/internal/webmail"
)

type config struct {
	addr     string
	accounts int
	mailbox  int
	seed     int64

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
	fs.IntVar(&cfg.accounts, "accounts", 10, "demo honey accounts to create (ignored with -snapshot)")
	fs.IntVar(&cfg.mailbox, "mailbox", 40, "seeded messages per demo account")
	fs.Int64Var(&cfg.seed, "seed", 1, "demo content seed")
	fs.StringVar(&cfg.snapshotPath, "snapshot", "", "boot the account store from this snapshot file")
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

// start builds the service (snapshot or demo), begins listening, and
// returns the running instance.
func start(cfg config, out io.Writer) (*instance, error) {
	if cfg.routerMode {
		return startRouter(cfg, out)
	}
	clock := simtime.NewClock(time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC))
	wcfg := webmail.Config{Clock: clock, Abuse: webmail.AbuseConfig{Disabled: !cfg.abuse}}

	var svc *webmail.Service
	var creds []livefleet.Credential
	if cfg.snapshotPath != "" {
		var err error
		svc, creds, err = livefleet.BootService(cfg.snapshotPath, cfg.partition, cfg.partitions, wcfg)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "booted %d accounts from %s (shard %d of %d)\n",
			len(creds), cfg.snapshotPath, cfg.partition, cfg.partitions)
	} else {
		svc = webmail.NewService(wcfg)
		src := rng.New(cfg.seed)
		personas := corpus.NewPersonas(src.ForkNamed("personas"), cfg.accounts, "honeymail.example")
		gen := corpus.NewGenerator(src.ForkNamed("corpus"), corpus.DefaultConfig())
		seedStart := clock.Now().Add(-120 * 24 * time.Hour)
		var msgs []corpus.Message
		var acct snapshot.Account
		for i, p := range personas {
			password := fmt.Sprintf("hp-%04d", i)
			acct = snapshot.Account{Address: p.Email, Password: password, Owner: p.FullName(),
				NextID: 1, Messages: acct.Messages[:0]}
			msgs = gen.MailboxAppend(msgs[:0], p, cfg.mailbox, seedStart, clock.Now())
			for _, m := range msgs {
				webmail.AppendSeeded(&acct, m.From, m.To, m.Subject, m.Body, m.Date)
			}
			if err := svc.RestoreAccountIn(webmail.PartitionIndex(p.Email, svc.Partitions()), &acct); err != nil {
				return nil, err
			}
			creds = append(creds, livefleet.Credential{Address: p.Email, Password: password})
			fmt.Fprintf(out, "account %-45s password %s\n", p.Email, password)
		}
	}
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
