package livefleet

import (
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/webmail"
)

// The live/engine parity contract: a scripted attacker session must
// leave byte-identical observable state — journal events, activity
// rows, folder counts — whether it drives the in-process
// webmail.Service directly or a socket-connected webmaild shard
// (optionally through the partition router). Every in-process result
// in this repo stands in for the live system only as long as this
// holds.

// scriptStep is one attacker action, expressed as the wire request;
// the in-process driver derives its Session call from the same value.
type scriptStep struct {
	req webmail.Request
	// wantOK is the expected outcome on both sides; a mismatch on
	// either side fails the script run itself.
	wantOK bool
}

func parityEndpoint(ip string) netsim.Endpoint {
	ep := netsim.Endpoint{
		Addr:      netip.MustParseAddr(ip),
		City:      "Berlin",
		Country:   "DE",
		UserAgent: "Mozilla/5.0 (X11; Linux x86_64) parity/1",
	}
	ep.Point.Lat, ep.Point.Lon = 52.52, 13.405
	return ep
}

// parityScript is one attacker visit sequence against one account:
// login, triage, search, read, star, spam, activity check, password
// change, return visit with the new password and the same browser
// cookie, and a deletion. Cookies are explicit so both sides bind
// identical identities without consulting their cookie jars.
func parityScript(account, password string) []scriptStep {
	ep := parityEndpoint("203.0.113.7")
	login := func(pw, cookie string) webmail.Request {
		return webmail.Request{
			Op: "login", Account: account, Password: pw, Cookie: cookie,
			IP: ep.Addr.String(), City: ep.City, Country: ep.Country,
			Lat: ep.Point.Lat, Lon: ep.Point.Lon, UserAgent: ep.UserAgent,
		}
	}
	return []scriptStep{
		{req: login("wrong-password", "parity-c1"), wantOK: false},
		{req: login(password, "parity-c1"), wantOK: true},
		{req: webmail.Request{Op: "list", Folder: "inbox"}, wantOK: true},
		{req: webmail.Request{Op: "list", Folder: "inbox", Limit: 1}, wantOK: true},
		{req: webmail.Request{Op: "search", Query: "payment"}, wantOK: true},
		{req: webmail.Request{Op: "read", ID: 1}, wantOK: true},
		{req: webmail.Request{Op: "star", ID: 1}, wantOK: true},
		{req: webmail.Request{Op: "read", ID: 999}, wantOK: false},
		{req: webmail.Request{Op: "draft", To: "buyer@market.example", Subject: "creds for sale", Body: "fresh logs"}, wantOK: true},
		{req: webmail.Request{Op: "send", To: "user0001@victims.example", Subject: "Limited offer just for you", Body: "Click the link"}, wantOK: true},
		{req: webmail.Request{Op: "activity"}, wantOK: true},
		{req: webmail.Request{Op: "chpass", Password: "hijacked-1"}, wantOK: true},
		{req: login(password, "parity-c2"), wantOK: false}, // old password is dead
		{req: login("hijacked-1", "parity-c1"), wantOK: true},
		{req: webmail.Request{Op: "list", Folder: "sent"}, wantOK: true},
		{req: webmail.Request{Op: "delete", ID: 2}, wantOK: true},
	}
}

// driveInProcess replays the script through the Service/Session API —
// the path the simulation engine uses.
func driveInProcess(t *testing.T, svc *webmail.Service, steps []scriptStep) {
	t.Helper()
	var session *webmail.Session
	for i, st := range steps {
		req := st.req
		var err error
		if req.Op == "login" {
			ep := netsim.Endpoint{
				Addr: netip.MustParseAddr(req.IP), City: req.City, Country: req.Country,
				UserAgent: req.UserAgent,
			}
			ep.Point.Lat, ep.Point.Lon = req.Lat, req.Lon
			var se *webmail.Session
			se, err = svc.Login(req.Account, req.Password, req.Cookie, ep)
			if err == nil {
				session = se
			}
		} else if session == nil {
			t.Fatalf("step %d: script op %s before any login", i, req.Op)
		} else {
			switch req.Op {
			case "list":
				_, err = session.ListN(webmail.Folder(req.Folder), req.Limit)
			case "search":
				_, err = session.Search(req.Query)
			case "read":
				_, err = session.Read(req.ID)
			case "star":
				err = session.Star(req.ID)
			case "draft":
				_, err = session.CreateDraft(req.To, req.Subject, req.Body)
			case "send":
				_, err = session.Send(req.To, req.Subject, req.Body)
			case "chpass":
				err = session.ChangePassword(req.Password)
			case "activity":
				_, err = session.ActivityPage()
			case "delete":
				err = session.Delete(req.ID)
			default:
				t.Fatalf("step %d: unknown script op %s", i, req.Op)
			}
		}
		if ok := err == nil; ok != st.wantOK {
			t.Fatalf("in-process step %d (%s): ok=%v want %v (err=%v)", i, req.Op, ok, st.wantOK, err)
		}
	}
}

// driveWire replays the script over a socket. The wire protocol binds
// the session to the connection, so like the in-process driver the
// script continues on the same client across logins.
func driveWire(t *testing.T, addr string, steps []scriptStep) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client, err := webmail.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i, st := range steps {
		resp, err := client.Do(st.req)
		if err != nil {
			t.Fatalf("wire step %d (%s): transport error %v", i, st.req.Op, err)
		}
		if resp.OK != st.wantOK {
			t.Fatalf("wire step %d (%s): ok=%v want %v (error %q)", i, st.req.Op, resp.OK, st.wantOK, resp.Error)
		}
	}
}

// assertParity compares every observable the platform exposes about
// an account across two services.
func assertParity(t *testing.T, label string, ref, live *webmail.Service, account string) {
	t.Helper()
	refJ, liveJ := ref.Journal(account), live.Journal(account)
	if !reflect.DeepEqual(refJ, liveJ) {
		t.Fatalf("%s: journal diverges for %s:\nengine: %+v\nlive:   %+v", label, account, refJ, liveJ)
	}
	refAcc, refErr := ref.ActivityPage(account)
	liveAcc, liveErr := live.ActivityPage(account)
	if refErr != nil || liveErr != nil {
		t.Fatalf("%s: activity page errors: %v %v", label, refErr, liveErr)
	}
	if !reflect.DeepEqual(refAcc, liveAcc) {
		t.Fatalf("%s: activity rows diverge for %s:\nengine: %+v\nlive:   %+v", label, account, refAcc, liveAcc)
	}
	refC, err1 := ref.Counts(account)
	liveC, err2 := live.Counts(account)
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: counts errors: %v %v", label, err1, err2)
	}
	if refC != liveC {
		t.Fatalf("%s: folder counts diverge for %s: engine %+v live %+v", label, account, refC, liveC)
	}
	refP, err1 := ref.Password(account)
	liveP, err2 := live.Password(account)
	if err1 != nil || err2 != nil || refP != liveP {
		t.Fatalf("%s: password diverges for %s: %q/%v vs %q/%v", label, account, refP, err1, liveP, err2)
	}
	refS, liveS := ref.SearchLog(account), live.SearchLog(account)
	if !reflect.DeepEqual(refS, liveS) {
		t.Fatalf("%s: search log diverges for %s: %v vs %v", label, account, refS, liveS)
	}
}

// TestParityEngineVsShard: the same snapshot boots an in-process
// reference and a socket-served shard; the same script runs against
// both; every observable matches.
func TestParityEngineVsShard(t *testing.T) {
	path := buildTestSnapshot(t, 4)
	ref, creds, err := BootService(path, 0, 1, svcConfig())
	if err != nil {
		t.Fatal(err)
	}
	live, _, err := BootService(path, 0, 1, svcConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := webmail.NewServer(live)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	for _, c := range creds {
		steps := parityScript(c.Address, c.Password)
		driveInProcess(t, ref, steps)
		driveWire(t, addr, steps)
		assertParity(t, "direct shard", ref, live, c.Address)
	}
}

// TestParityEngineVsRoutedFleet: same contract, but the live side is
// a two-shard fleet behind the partition router, each shard booted
// from its slice of the same snapshot. The script must land on the
// right shard purely by account hash.
func TestParityEngineVsRoutedFleet(t *testing.T) {
	path := buildTestSnapshot(t, 8)
	const parts = 2
	ref, creds, err := BootService(path, 0, 1, svcConfig())
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*webmail.Service, parts)
	addrs := make([]string, parts)
	for i := 0; i < parts; i++ {
		svc, _, err := BootService(path, i, parts, svcConfig())
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = svc
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

	covered := make([]bool, parts)
	for _, c := range creds {
		shard := webmail.PartitionIndex(c.Address, parts)
		covered[shard] = true
		steps := parityScript(c.Address, c.Password)
		driveInProcess(t, ref, steps)
		driveWire(t, raddr, steps)
		assertParity(t, fmt.Sprintf("routed shard %d", shard), ref, shards[shard], c.Address)
	}
	for shard, ok := range covered {
		if !ok {
			t.Fatalf("script never exercised shard %d; grow the fixture", shard)
		}
	}
}

// TestParityFailoverChaos: kill one shard of a routed fleet mid-session.
// The failover contract: sessions bound to the dead shard get exactly
// one "shard connection lost" error and then their connection closes;
// sessions on the surviving shard keep byte-identical parity with the
// in-process engine; logins to the dead shard are refused while it is
// down; and once the shard restarts from the same snapshot the prober
// flips it back up and fresh logins succeed.
func TestParityFailoverChaos(t *testing.T) {
	path := buildTestSnapshot(t, 8)
	const parts = 2
	ref, creds, err := BootService(path, 0, 1, svcConfig())
	if err != nil {
		t.Fatal(err)
	}
	svc0, _, err := BootService(path, 0, parts, svcConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv0 := webmail.NewServer(svc0)
	addr0, err := srv0.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv0.Close() })
	sh1 := newRestartableShard(t, path, 1, parts)

	router, err := NewRouter(RouterConfig{
		Shards:         []string{addr0, sh1.addr},
		HealthInterval: 25 * time.Millisecond,
		HealthTimeout:  500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	router.backoff, router.backoffMax = 25*time.Millisecond, 250*time.Millisecond
	raddr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })

	var dead, surviving []Credential
	for _, c := range creds {
		if webmail.PartitionIndex(c.Address, parts) == 1 {
			dead = append(dead, c)
		} else {
			surviving = append(surviving, c)
		}
	}
	if len(dead) == 0 || len(surviving) == 0 {
		t.Fatalf("fixture does not cover both shards: %d dead, %d surviving", len(dead), len(surviving))
	}

	// Pin a live session per doomed-shard account.
	pinned := make([]*webmail.Client, len(dead))
	for i, c := range dead {
		cl := routerDial(t, raddr)
		if resp, err := cl.Do(loginReq(c, "chaos-pin")); err != nil || !resp.OK {
			t.Fatalf("pin login %s: %v %+v", c.Address, err, resp)
		}
		pinned[i] = cl
	}

	sh1.stop()

	// Each pinned session observes exactly one in-band error, then the
	// router closes its connection — no half-dead sessions linger.
	for i, cl := range pinned {
		resp, err := cl.Do(webmail.Request{Op: "list", Folder: "inbox"})
		if err != nil {
			t.Fatalf("pinned session %d: transport error before the in-band error: %v", i, err)
		}
		if resp.OK || resp.Error != "webmail: shard connection lost" {
			t.Fatalf("pinned session %d: got %+v, want shard connection lost", i, resp)
		}
		if _, err := cl.Do(webmail.Request{Op: "list", Folder: "inbox"}); err == nil {
			t.Fatalf("pinned session %d: connection still open after connection-lost error", i)
		}
	}

	// The outage must not perturb the surviving shard: full parity
	// scripts, byte-identical observables.
	for _, c := range surviving {
		steps := parityScript(c.Address, c.Password)
		driveInProcess(t, ref, steps)
		driveWire(t, raddr, steps)
		assertParity(t, "surviving shard during outage", ref, svc0, c.Address)
	}

	// Logins aimed at the dead shard are refused with a down-shard
	// rejection while it is out.
	waitForShardState(t, router, 1, false)
	cl := routerDial(t, raddr)
	resp, err := cl.Do(loginReq(dead[0], "chaos-down"))
	if err != nil || resp.OK {
		t.Fatalf("login to dead shard: %v %+v", err, resp)
	}
	if resp.Error != "webmail: shard down" && resp.Error != "webmail: shard unavailable" {
		t.Fatalf("dead-shard login error = %q", resp.Error)
	}

	// Restart on the same address from the same snapshot; the prober
	// flips the shard up and logins flow again.
	sh1.restart()
	waitForShardState(t, router, 1, true)
	deadline := time.Now().Add(10 * time.Second)
	for {
		cl := routerDial(t, raddr)
		resp, err = cl.Do(loginReq(dead[0], "chaos-back"))
		if err == nil && resp.OK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("login never recovered after shard restart: %v %+v", err, resp)
		}
		time.Sleep(25 * time.Millisecond)
	}

	st := router.Stats().Shards
	if st[1].DownTransitions != 1 || st[1].UpTransitions != 1 {
		t.Fatalf("dead shard transitions: %+v, want exactly one down and one up", st[1])
	}
	if st[0].DownTransitions != 0 {
		t.Fatalf("surviving shard flapped: %+v", st[0])
	}
}
