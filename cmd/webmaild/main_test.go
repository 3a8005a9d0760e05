package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/livefleet"
	"repro/internal/snapshot"
	"repro/internal/webmail"
)

// writeTestSnapshot builds a small snapshot file for boot tests.
func writeTestSnapshot(t *testing.T, nAccounts int) string {
	t.Helper()
	st := &snapshot.State{}
	base := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < nAccounts; i++ {
		addr := fmt.Sprintf("snap%03d@honeymail.example", i)
		st.Accounts = append(st.Accounts, snapshot.Account{
			Address: addr, Password: fmt.Sprintf("sp-%03d", i), Owner: "Owner",
			SendFrom: addr, NextID: 3,
			Messages: []snapshot.Message{
				{ID: 1, Folder: "inbox", From: "a@x.example", To: addr, Subject: "hello payment", Body: "b", DateNS: base.UnixNano()},
				{ID: 2, Folder: "sent", From: addr, To: "a@x.example", Subject: "re", Body: "b2", DateNS: base.Add(time.Hour).UnixNano()},
			},
		})
	}
	path := filepath.Join(t.TempDir(), "boot.snap")
	if err := os.WriteFile(path, st.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func wireLogin(t *testing.T, addr, account, password string) *webmail.Client {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := webmail.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	resp, err := c.Do(webmail.Request{
		Op: "login", Account: account, Password: password,
		IP: "203.0.113.11", City: "Berlin", Country: "DE", Lat: 52.52, Lon: 13.405,
		UserAgent: "cmdtest/1",
	})
	if err != nil || !resp.OK {
		t.Fatalf("login %s: %v %+v", account, err, resp)
	}
	return c
}

// TestSnapshotBootRoundTrip: webmaild -snapshot -partition restores
// exactly its shard's slice and serves it over the wire.
func TestSnapshotBootRoundTrip(t *testing.T) {
	path := writeTestSnapshot(t, 10)
	const parts = 2
	var all []livefleet.Credential
	for part := 0; part < parts; part++ {
		credsPath := filepath.Join(t.TempDir(), fmt.Sprintf("creds-%d.txt", part))
		inst, err := start(config{
			addr: "127.0.0.1:0", snapshotPath: path,
			partition: part, partitions: parts, abuse: true,
			credsOut: credsPath, drainTimeout: 10 * time.Second,
		}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { inst.Close() })
		f, err := os.Open(credsPath)
		if err != nil {
			t.Fatal(err)
		}
		creds, err := livefleet.ReadCredentials(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, cred := range creds {
			if got := webmail.PartitionIndex(cred.Address, parts); got != part {
				t.Fatalf("%s restored on shard %d, hashes to %d", cred.Address, part, got)
			}
			c := wireLogin(t, inst.Addr, cred.Address, cred.Password)
			resp, err := c.Do(webmail.Request{Op: "read", ID: 1})
			if err != nil || !resp.OK || resp.Message == nil || !strings.Contains(resp.Message.Subject, "payment") {
				t.Fatalf("read restored message: %v %+v", err, resp)
			}
		}
		all = append(all, creds...)
	}
	if len(all) != 10 {
		t.Fatalf("shards restored %d accounts total, want 10", len(all))
	}
}

// TestConcurrentWireClients: many sessions at once against one
// instance, meant for the -race matrix.
func TestConcurrentWireClients(t *testing.T) {
	path := writeTestSnapshot(t, 8)
	inst, err := start(config{
		addr: "127.0.0.1:0", snapshotPath: path, partitions: 1,
		abuse: true, drainTimeout: 10 * time.Second,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			account := fmt.Sprintf("snap%03d@honeymail.example", i)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			c, err := webmail.Dial(ctx, inst.Addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			resp, err := c.Do(webmail.Request{
				Op: "login", Account: account, Password: fmt.Sprintf("sp-%03d", i),
				IP: "203.0.113.12", City: "Berlin", Country: "DE", Lat: 52.52, Lon: 13.405,
			})
			if err != nil || !resp.OK {
				errs <- fmt.Errorf("login %s: %v %+v", account, err, resp)
				return
			}
			for j := 0; j < 25; j++ {
				if resp, err = c.Do(webmail.Request{Op: "search", Query: "payment"}); err != nil || !resp.OK {
					errs <- fmt.Errorf("search %s: %v %+v", account, err, resp)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestShutdownDrains: Shutdown closes the listener and idle
// connections and returns cleanly; later requests fail.
func TestShutdownDrains(t *testing.T) {
	inst, err := start(config{
		addr: "127.0.0.1:0", snapshotPath: writeTestSnapshot(t, 1),
		partitions: 1, abuse: true, drainTimeout: 10 * time.Second,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	wireLogin(t, inst.Addr, "snap000@honeymail.example", "sp-000")
	if err := inst.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if nc, err := webmail.Dial(ctx, inst.Addr); err == nil {
		if _, err := nc.Do(webmail.Request{Op: "list"}); err == nil {
			t.Fatal("request after shutdown succeeded")
		}
		nc.Close()
	}
}

// TestRouterMode: webmaild -router fronts two snapshot-booted shards
// and routes sessions to whichever shard owns the account.
func TestRouterMode(t *testing.T) {
	path := writeTestSnapshot(t, 10)
	const parts = 2
	shardAddrs := make([]string, parts)
	for part := 0; part < parts; part++ {
		inst, err := start(config{
			addr: "127.0.0.1:0", snapshotPath: path,
			partition: part, partitions: parts, abuse: true,
			drainTimeout: 10 * time.Second,
		}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { inst.Close() })
		shardAddrs[part] = inst.Addr
	}
	var routerOut strings.Builder
	router, err := start(config{
		addr: "127.0.0.1:0", routerMode: true,
		shards:         strings.Join(shardAddrs, ","),
		healthInterval: 50 * time.Millisecond,
		healthTimeout:  time.Second,
		drainTimeout:   10 * time.Second,
	}, &routerOut)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	// Every account is reachable through the single router address,
	// regardless of which shard restored it.
	for i := 0; i < 10; i++ {
		account := fmt.Sprintf("snap%03d@honeymail.example", i)
		c := wireLogin(t, router.Addr, account, fmt.Sprintf("sp-%03d", i))
		resp, err := c.Do(webmail.Request{Op: "list", Folder: "inbox"})
		if err != nil || !resp.OK || len(resp.Messages) != 1 {
			t.Fatalf("list %s via router: %v %+v", account, err, resp)
		}
	}
	if err := router.Shutdown(context.Background()); err != nil {
		t.Fatalf("router drain: %v", err)
	}
	// A draining router reports per-shard health; both shards stayed up
	// the whole run.
	if out := routerOut.String(); !strings.Contains(out, "Fleet health (router)") ||
		strings.Contains(out, " down ") || !strings.Contains(out, " up ") {
		t.Fatalf("drain output missing healthy fleet-health section:\n%s", out)
	}
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:9999", "-snapshot", "x.snap", "-partition", "1", "-partitions", "4", "-abuse=false"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != "127.0.0.1:9999" || cfg.snapshotPath != "x.snap" || cfg.partition != 1 || cfg.partitions != 4 || cfg.abuse {
		t.Fatalf("parsed %+v", cfg)
	}
	if _, err := parseFlags([]string{"-no-such-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	if _, err := parseFlags([]string{"-router"}); err == nil {
		t.Fatal("-router without -shards accepted")
	}
	if _, err := parseFlags([]string{"-partition", "1", "-partitions", "2"}); err == nil {
		t.Fatal("shard without -snapshot accepted")
	}
	rcfg, err := parseFlags([]string{"-router", "-shards", "a:1,b:2"})
	if err != nil {
		t.Fatal(err)
	}
	if !rcfg.routerMode || rcfg.shards != "a:1,b:2" {
		t.Fatalf("parsed %+v", rcfg)
	}
	if rcfg.healthInterval != time.Second || rcfg.healthTimeout != time.Second {
		t.Fatalf("health defaults: %+v", rcfg)
	}
	hcfg, err := parseFlags([]string{"-router", "-shards", "a:1", "-health-interval", "250ms", "-health-timeout", "2s"})
	if err != nil {
		t.Fatal(err)
	}
	if hcfg.healthInterval != 250*time.Millisecond || hcfg.healthTimeout != 2*time.Second {
		t.Fatalf("parsed health flags: %+v", hcfg)
	}
}
