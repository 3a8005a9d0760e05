// Package monitor implements the scraper half of the paper's
// monitoring infrastructure (§3.1): it periodically logs into every
// honey account to dump its activity page — cookie identifiers,
// geolocation, access times, and system fingerprints. The other half,
// the hidden scripts that report mailbox changes, is
// internal/appscript; its notifications go straight to the same
// consumer. Paper-section map:
//
//   - §3.1: Monitor, the activity-page scraper. It is version-gated:
//     a scrape tick logs into an account only when something a
//     scraper could see changed since its last visit, and then reads
//     only the rows that changed.
//   - §4.1 self-access filtering: accesses made by the monitoring
//     infrastructure itself, and any access from the city the
//     infrastructure runs in, are removed before the rows reach the
//     Sink.
//   - §4.2 loss of visibility: when a hijacker changes an account
//     password the scraper's credentials stop working, so activity
//     rows freeze at their last scraped state — a lower bound on
//     access durations — while notifications keep flowing because the
//     embedded scripts keep running.
//
// The monitor keeps no observations: it streams each changed row and
// each first failure to the Sink in Config, the hook the streaming
// classification pipeline uses to analyse accesses while the
// simulation runs. reference_test.go holds a scrape-everything
// scraper that the gated one must match row for row.
package monitor
