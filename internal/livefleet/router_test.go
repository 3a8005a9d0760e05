package livefleet

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/webmail"
)

// fleetFixture boots a parts-shard fleet behind a router from a fresh
// snapshot and returns the router address plus the credential list.
func fleetFixture(t *testing.T, accounts, parts int) (string, []Credential) {
	t.Helper()
	path := buildTestSnapshot(t, accounts)
	addrs := make([]string, parts)
	var creds []Credential
	for i := 0; i < parts; i++ {
		svc, cs, err := BootService(path, i, parts, svcConfig())
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
	router, err := NewRouter(RouterConfig{Shards: addrs})
	if err != nil {
		t.Fatal(err)
	}
	raddr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	return raddr, creds
}

func routerDial(t *testing.T, addr string) *webmail.Client {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := webmail.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func loginReq(c Credential, cookie string) webmail.Request {
	return webmail.Request{
		Op: "login", Account: c.Address, Password: c.Password, Cookie: cookie,
		IP: "203.0.113.9", City: "Berlin", Country: "DE", Lat: 52.52, Lon: 13.405,
		UserAgent: "router-test/1",
	}
}

// TestRouterPreBindRejectedLocally: a request before login is refused
// by the router itself with the same error a shard would produce.
func TestRouterPreBindRejectedLocally(t *testing.T) {
	raddr, creds := fleetFixture(t, 4, 2)
	c := routerDial(t, raddr)
	resp, err := c.Do(webmail.Request{Op: "list", Folder: "inbox"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "not logged in") {
		t.Fatalf("pre-bind list: %+v", resp)
	}
	// The connection survives the local rejection and can still log in.
	resp, err = c.Do(loginReq(creds[0], ""))
	if err != nil || !resp.OK {
		t.Fatalf("login after local rejection: %v %+v", err, resp)
	}
}

// TestRouterSessionFollowsAccount: every account is reachable through
// the router, and a full session (login → list → read) works wherever
// the account hashes.
func TestRouterSessionFollowsAccount(t *testing.T) {
	raddr, creds := fleetFixture(t, 8, 2)
	for _, cred := range creds {
		c := routerDial(t, raddr)
		resp, err := c.Do(loginReq(cred, ""))
		if err != nil || !resp.OK {
			t.Fatalf("login %s via router: %v %+v", cred.Address, err, resp)
		}
		resp, err = c.Do(webmail.Request{Op: "list", Folder: "inbox"})
		if err != nil || !resp.OK || len(resp.Messages) != 2 {
			t.Fatalf("list %s via router: %v %+v", cred.Address, err, resp)
		}
		resp, err = c.Do(webmail.Request{Op: "read", ID: 1})
		if err != nil || !resp.OK || resp.Message == nil {
			t.Fatalf("read %s via router: %v %+v", cred.Address, err, resp)
		}
	}
}

// TestRouterFailedLoginKeepsConnectionUsable: a wrong password is
// relayed as a normal rejection; the backend connection returns to
// the pool and the client can retry on the same connection.
func TestRouterFailedLoginKeepsConnectionUsable(t *testing.T) {
	raddr, creds := fleetFixture(t, 4, 2)
	c := routerDial(t, raddr)
	bad := creds[0]
	bad.Password = "wrong"
	resp, err := c.Do(loginReq(bad, ""))
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("wrong password accepted")
	}
	resp, err = c.Do(loginReq(creds[0], ""))
	if err != nil || !resp.OK {
		t.Fatalf("retry login: %v %+v", err, resp)
	}
}

// TestRouterConcurrentClients: many clients with sessions pinned to
// both shards, all active at once under -race.
func TestRouterConcurrentClients(t *testing.T) {
	raddr, creds := fleetFixture(t, 12, 2)
	var wg sync.WaitGroup
	errs := make(chan error, len(creds)*2)
	for gi := 0; gi < 2; gi++ {
		for _, cred := range creds {
			wg.Add(1)
			go func(cred Credential, gi int) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				defer cancel()
				c, err := webmail.Dial(ctx, raddr)
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				resp, err := c.Do(loginReq(cred, fmt.Sprintf("cc-%d-%s", gi, cred.Address)))
				if err != nil || !resp.OK {
					errs <- fmt.Errorf("login %s: %v %+v", cred.Address, err, resp)
					return
				}
				for i := 0; i < 20; i++ {
					resp, err = c.Do(webmail.Request{Op: "list", Folder: "inbox"})
					if err != nil || !resp.OK {
						errs <- fmt.Errorf("list %s: %v %+v", cred.Address, err, resp)
						return
					}
					resp, err = c.Do(webmail.Request{Op: "search", Query: "payment"})
					if err != nil || !resp.OK {
						errs <- fmt.Errorf("search %s: %v %+v", cred.Address, err, resp)
						return
					}
				}
			}(cred, gi)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRouterDrainFinishesInFlight mirrors the server drain contract
// at the router layer: draining refuses new connections but lets an
// established session complete its in-flight request.
func TestRouterDrainFinishesInFlight(t *testing.T) {
	path := buildTestSnapshot(t, 4)
	svc, creds, err := BootService(path, 0, 1, svcConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := webmail.NewServer(svc)
	saddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	router, err := NewRouter(RouterConfig{Shards: []string{saddr}})
	if err != nil {
		t.Fatal(err)
	}
	raddr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })

	c := routerDial(t, raddr)
	if resp, err := c.Do(loginReq(creds[0], "")); err != nil || !resp.OK {
		t.Fatalf("login: %v %+v", err, resp)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := router.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// New connections are refused after drain.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Second)
	defer dcancel()
	if nc, err := webmail.Dial(dctx, raddr); err == nil {
		if _, err := nc.Do(webmail.Request{Op: "list"}); err == nil {
			t.Fatal("request on a drained router succeeded")
		}
		nc.Close()
	}
	// Draining again is a no-op.
	if err := router.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestRouterRejectsEmptyFleet: config validation.
func TestRouterRejectsEmptyFleet(t *testing.T) {
	if _, err := NewRouter(RouterConfig{}); err == nil {
		t.Fatal("router with no shards accepted")
	}
}
