// Live servers: run the webmail platform as a real TCP service on
// localhost, with its outbound mail going to the sinkhole, then drive
// an attacker session over the wire protocol — login with stolen
// credentials, search for valuables, read a hit, send a ransom
// demand, hijack the password — and show the sinkhole swallowing that
// mail.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/sinkhole"
	"repro/internal/webmail"
)

func main() {
	clock := simtime.NewClock(time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC))

	// Webmail platform over TCP, with outbound mail going to the
	// sinkhole, which counts it and forwards nothing.
	sink := &sinkhole.Store{}
	svc := webmail.NewService(webmail.Config{Clock: clock, Outbound: sink})
	if err := svc.CreateAccount("mary.walker@honeymail.example", "hp-c0ffee11", "Mary Walker"); err != nil {
		log.Fatal(err)
	}
	svc.SetSendFrom("mary.walker@honeymail.example", sinkhole.Sender)
	svc.Seed("mary.walker@honeymail.example", webmail.FolderInbox,
		"treasury@solenix-energy.example", "mary.walker@honeymail.example",
		"Wire transfer confirmation - EC-2210",
		"The wire transfer of $128,500 under contract EC-2210 was released this morning.",
		clock.Now().Add(-24*time.Hour))

	mailSrv := webmail.NewServer(svc)
	mailAddr, err := mailSrv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer mailSrv.Close()
	fmt.Println("webmail listening on", mailAddr)

	// The attacker's browser: a wire-protocol client connecting from a
	// proxy with a spoofed user agent.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	client, err := webmail.Dial(ctx, mailAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	space := netsim.NewAddressSpace(rng.New(9), geo.Default())
	ep := space.OpenProxy()
	resp, err := client.Do(webmail.LoginRequest("mary.walker@honeymail.example", "hp-c0ffee11", "", ep))
	if err != nil || !resp.OK {
		log.Fatalf("login failed: %v %+v", err, resp)
	}
	fmt.Println("\nattacker logged in, cookie:", resp.Cookie)

	hits, err := client.Do(webmail.Request{Op: "search", Query: "transfer"})
	if err != nil || !hits.OK {
		log.Fatalf("search failed: %v %+v", err, hits)
	}
	fmt.Printf("search 'transfer' -> %d hit(s)\n", len(hits.Messages))

	read, err := client.Do(webmail.Request{Op: "read", ID: hits.Messages[0].ID})
	if err != nil || !read.OK {
		log.Fatal("read failed")
	}
	fmt.Println("read:", read.Message.Subject)

	if resp, err := client.Do(webmail.Request{
		Op: "send", To: "member0042@ashley-victims.example",
		Subject: "Payment required",
		Body:    "Send 2 bitcoin to the wallet below or your family finds out.",
	}); err != nil || !resp.OK {
		log.Fatalf("send failed: %v %+v", err, resp)
	}
	if resp, err := client.Do(webmail.Request{Op: "chpass", Password: "owned-now"}); err != nil || !resp.OK {
		log.Fatal("hijack failed")
	}
	fmt.Println("sent blackmail and hijacked the password")

	fmt.Printf("\nsinkhole swallowed %d message(s)\n", sink.Count())
	fmt.Println("\nNothing was delivered to a real recipient; the envelope sender was")
	fmt.Println("rewritten to the sinkhole address by the platform's send-from override.")
}
