package webmail

import (
	"fmt"
	"sync"
	"time"
)

// AbuseConfig tunes the platform's outbound-abuse detection. The paper
// reports that Google "suspended a number of accounts under our
// control that attempted to send spam" (§3.4) — 42 of 100 by the end
// of the study (§4.1). The detector models that enforcement: bursts of
// outgoing mail and fan-out to many distinct recipients get an account
// suspended.
type AbuseConfig struct {
	// Window is the sliding window the rates are measured over.
	// Zero selects the default (1 hour).
	Window time.Duration
	// MaxSendsPerWindow suspends an account that sends more messages
	// than this within Window. Zero selects the default (25).
	MaxSendsPerWindow int
	// MaxRecipientsPerWindow suspends on distinct-recipient fan-out.
	// Zero selects the default (20).
	MaxRecipientsPerWindow int
	// Disabled turns enforcement off entirely (for ablations).
	Disabled bool
}

func (c AbuseConfig) withDefaults() AbuseConfig {
	if c.Window <= 0 {
		c.Window = time.Hour
	}
	// Real webmail providers tolerate on the order of a hundred
	// messages per hour before enforcement; the paper's spammers
	// averaged ~100 sends per spamming access (845 sends across 8
	// spammer accesses) before Google's suspensions landed.
	if c.MaxSendsPerWindow <= 0 {
		c.MaxSendsPerWindow = 110
	}
	if c.MaxRecipientsPerWindow <= 0 {
		c.MaxRecipientsPerWindow = 100
	}
	return c
}

// abuseDetector tracks per-account outbound send history.
type abuseDetector struct {
	mu  sync.Mutex
	cfg AbuseConfig
	log map[string][]sendRecord
	// distinct is the recipient set a fan-out count fills, emptied and
	// reused on every count instead of allocated per send.
	distinct map[string]struct{}
}

type sendRecord struct {
	at time.Time
	to string
}

func newAbuseDetector(cfg AbuseConfig) *abuseDetector {
	return &abuseDetector{
		cfg:      cfg.withDefaults(),
		log:      make(map[string][]sendRecord),
		distinct: make(map[string]struct{}),
	}
}

// recordSend registers one outgoing message and returns a non-empty
// verdict string if the account should be suspended.
func (d *abuseDetector) recordSend(account, to string, at time.Time) string {
	if d.cfg.Disabled {
		return ""
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	recs := append(d.log[account], sendRecord{at: at, to: to})
	// Trim entries that fell out of the window.
	cutoff := at.Add(-d.cfg.Window)
	start := 0
	for start < len(recs) && recs[start].at.Before(cutoff) {
		start++
	}
	recs = recs[start:]
	d.log[account] = recs

	if len(recs) > d.cfg.MaxSendsPerWindow {
		return fmt.Sprintf("abuse: %d sends within %v", len(recs), d.cfg.Window)
	}
	// A window cannot hold more distinct recipients than records, so
	// most sends skip the count.
	if len(recs) <= d.cfg.MaxRecipientsPerWindow {
		return ""
	}
	clear(d.distinct)
	for _, r := range recs {
		d.distinct[r.to] = struct{}{}
	}
	if len(d.distinct) > d.cfg.MaxRecipientsPerWindow {
		return fmt.Sprintf("abuse: %d distinct recipients within %v", len(d.distinct), d.cfg.Window)
	}
	return ""
}
