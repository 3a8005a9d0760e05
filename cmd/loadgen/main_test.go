package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/livefleet"
	"repro/internal/simtime"
	"repro/internal/snapshot"
	"repro/internal/webmail"
)

// startFleet boots a 2-shard fleet behind a router from a fresh
// snapshot and returns the router address plus a credential file in
// the format -creds consumes.
func startFleet(t *testing.T, accounts int) (string, string) {
	t.Helper()
	st := &snapshot.State{}
	base := time.Date(2015, 5, 26, 0, 0, 0, 0, time.UTC)
	for i := 0; i < accounts; i++ {
		addr := fmt.Sprintf("load%03d@honeymail.example", i)
		st.Accounts = append(st.Accounts, snapshot.Account{
			Address: addr, Password: fmt.Sprintf("lp-%03d", i), Owner: "Owner",
			SendFrom: addr, NextID: 4,
			Messages: []snapshot.Message{
				{ID: 1, Folder: "inbox", From: "bank@bank.example", To: addr, Subject: "Your statement and payment summary", Body: "wire transfer details inside", DateNS: base.UnixNano()},
				{ID: 2, Folder: "inbox", From: "kin@family.example", To: addr, Subject: "family photos", Body: "see attached", DateNS: base.Add(time.Hour).UnixNano(), Read: true},
				{ID: 3, Folder: "sent", From: addr, To: "kin@family.example", Subject: "re: family photos", Body: "lovely", DateNS: base.Add(2 * time.Hour).UnixNano()},
			},
		})
	}
	snapPath := filepath.Join(t.TempDir(), "fleet.snap")
	if err := os.WriteFile(snapPath, st.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}

	const parts = 2
	addrs := make([]string, parts)
	var creds []livefleet.Credential
	for i := 0; i < parts; i++ {
		svc, cs, err := livefleet.BootService(snapPath, i, parts, webmail.Config{
			Clock: simtime.NewClock(base.Add(30 * 24 * time.Hour)),
			Abuse: webmail.AbuseConfig{Disabled: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		creds = append(creds, cs...)
		srv := webmail.NewServer(svc)
		addrs[i], err = srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
	}
	router, err := livefleet.NewRouter(livefleet.RouterConfig{Shards: addrs, PoolSize: 4, MaxInFlight: 128})
	if err != nil {
		t.Fatal(err)
	}
	raddr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })

	credsPath := filepath.Join(t.TempDir(), "creds.txt")
	f, err := os.Create(credsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := livefleet.WriteCredentials(f, creds); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return raddr, credsPath
}

// TestRunAgainstFleet: the full binary path — creds file, plan build,
// replay through the router — finishes with zero faults and renders
// the serving-latency section.
func TestRunAgainstFleet(t *testing.T) {
	raddr, credsPath := startFleet(t, 10)
	var out strings.Builder
	stats, err := run(context.Background(), config{
		addr: raddr, credsPath: credsPath,
		conns: 4, visits: 6, seed: 3, mailbox: 3,
		timeout: 10 * time.Second,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 0 || stats.Timeouts != 0 || stats.Rejected != 0 {
		t.Fatalf("faults under load: errors=%d timeouts=%d rejected=%d\n%s",
			stats.Errors, stats.Timeouts, stats.Rejected, out.String())
	}
	if stats.Requests == 0 || stats.Hist == nil || stats.Hist.Count() != stats.Requests {
		t.Fatalf("stats incomplete: %+v", stats)
	}
	if !strings.Contains(out.String(), "Serving latency") || !strings.Contains(out.String(), "p99") {
		t.Fatalf("missing latency section:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "achieved ") {
		t.Fatalf("missing throughput line:\n%s", out.String())
	}
}

// TestRunMissingCreds: a bad credential path surfaces as an error, not
// a panic or a zero-op run.
func TestRunMissingCreds(t *testing.T) {
	_, err := run(context.Background(), config{
		addr: "127.0.0.1:1", credsPath: filepath.Join(t.TempDir(), "absent.txt"),
		conns: 1, visits: 1, mailbox: 1, timeout: time.Second,
	}, &strings.Builder{})
	if err == nil {
		t.Fatal("missing creds file accepted")
	}
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:8080", "-creds", "x.txt", "-qps", "5000", "-conns", "32"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != "127.0.0.1:8080" || cfg.credsPath != "x.txt" || cfg.qps != 5000 || cfg.conns != 32 {
		t.Fatalf("parsed %+v", cfg)
	}
	if cfg.tolerateUnavailable {
		t.Fatal("tolerate-unavailable defaults on; strict must be the default")
	}
	tcfg, err := parseFlags([]string{"-addr", "x", "-creds", "y", "-tolerate-unavailable"})
	if err != nil {
		t.Fatal(err)
	}
	if !tcfg.tolerateUnavailable {
		t.Fatalf("parsed %+v", tcfg)
	}
	if _, err := parseFlags([]string{"-addr", "x"}); err == nil {
		t.Fatal("missing -creds accepted")
	}
	if _, err := parseFlags([]string{"-creds", "x"}); err == nil {
		t.Fatal("missing -addr accepted")
	}
}
