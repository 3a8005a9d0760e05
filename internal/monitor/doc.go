// Package monitor implements the paper's monitoring infrastructure
// (§3.1): a collector that receives the Apps-Script notifications
// (the "dedicated webmail account [used] as a notifications store"),
// and a scraper that periodically logs into every honey account to
// dump its activity page — cookie identifiers, geolocation, access
// times, and system fingerprints. Paper-section map:
//
//   - §3.1: Store (notification collector) and Monitor (activity-page
//     scraper) — the two halves of the monitoring pipeline.
//   - §4.1 self-access filtering: accesses made by the monitoring
//     infrastructure itself, and any access from the city the
//     infrastructure runs in, are removed before the data reaches
//     analysis (in the Sink feed, and in Monitor.Dataset).
//   - §4.2 loss of visibility: when a hijacker changes an account
//     password the scraper's credentials stop working, so activity
//     rows freeze at their last scraped state — a lower bound on
//     access durations — while notifications keep flowing because the
//     embedded scripts keep running.
//
// Consumers read the observations live, through a Sink registered with
// Store.SetSink — the hook the streaming classification pipeline uses
// to analyse accesses while the simulation runs. The Store itself
// keeps no notification log; Monitor.Dataset re-derives the access
// rows from its diff state and serves as the tests' reference.
package monitor
