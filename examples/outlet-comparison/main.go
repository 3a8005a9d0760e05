// Outlet comparison (Figures 2–4): run the full Table 1 deployment and
// print the taxonomy mix per outlet, the time-to-access CDFs, and the
// access timeline — including the malware resale bursts around day 30
// and day 100.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/honeynet"
	"repro/internal/report"
)

func main() {
	exp, err := honeynet.New(honeynet.Config{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Running the full 7-month Table 1 deployment (100 accounts)...")
	start := time.Now()
	if err := exp.RunAll(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done in %v wall time\n\n", time.Since(start).Round(time.Millisecond))

	agg, err := exp.Aggregates()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.Figure2(agg.PerOutlet))
	fmt.Println(report.Figure1Sketches(agg.Durations))
	fmt.Println(report.Figure3Sketches(agg.TimeToAccess))
	fmt.Println(report.Figure4Buckets(agg.Timeline, agg.TimelineMax))

	waves := exp.ResaleWaves()
	fmt.Printf("Malware aggregation/resale waves hit %d accounts (expect bursts ~day 30 and ~day 100)\n", len(waves))

	inq := exp.AllInquiries()
	fmt.Printf("Forum buyer inquiries logged (never answered, per protocol): %d\n", len(inq))
	for i, q := range inq {
		if i >= 3 {
			break
		}
		fmt.Printf("  [%s] %s: %s\n", q.Site.Name, q.From, q.Message)
	}
}
