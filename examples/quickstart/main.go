// Quickstart: deploy a small honeynet (20 accounts across two
// outlets), run 60 simulated days, and print what the monitoring
// pipeline observed — the smallest end-to-end use of the library.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/analysis"
	"repro/internal/honeynet"
	"repro/internal/report"
)

func main() {
	exp, err := honeynet.New(honeynet.Config{
		Seed: 1,
		Plan: []honeynet.GroupSpec{
			{ID: 1, Count: 10, Channel: analysis.OutletPaste, Hint: analysis.HintNone, Label: "paste sites"},
			{ID: 3, Count: 10, Channel: analysis.OutletForum, Hint: analysis.HintNone, Label: "underground forums"},
		},
		Duration:       60 * 24 * time.Hour,
		MailboxSize:    40,
		ScanInterval:   time.Hour,
		ScrapeInterval: 6 * time.Hour,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := exp.RunAll(); err != nil {
		log.Fatal(err)
	}

	agg, err := exp.Aggregates()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.Overview(agg.Overview()))
	fmt.Println(report.Figure2(agg.PerOutlet))

	fmt.Println("First ten observed accesses:")
	for i, a := range exp.Dataset().Accesses {
		if i >= 10 {
			break
		}
		where := a.City
		if where == "" {
			where = "anonymous (Tor/proxy)"
		}
		fmt.Printf("  %s  day %5.1f  %-8s  %s\n",
			a.Cookie, a.First.Sub(a.LeakTime).Hours()/24, a.Outlet, where)
	}
	fmt.Printf("\nSinkholed outbound messages: %d (none delivered to real recipients)\n",
		exp.SinkholeCount())
}
