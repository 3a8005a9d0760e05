package webmail

import (
	"fmt"
	"time"
)

// The abuse thresholds. The paper reports that Google "suspended a
// number of accounts under our control that attempted to send spam"
// (§3.4) — 42 of 100 by the end of the study (§4.1). The detector
// models that enforcement: bursts of outgoing mail and fan-out to many
// distinct recipients within a sliding window get an account
// suspended. Real webmail providers tolerate on the order of a hundred
// messages per hour before enforcement; the paper's spammers averaged
// ~100 sends per spamming access (845 sends across 8 spammer accesses)
// before Google's suspensions landed.
const (
	abuseWindow            = time.Hour
	maxSendsPerWindow      = 110
	maxRecipientsPerWindow = 100
)

// AbuseConfig switches the platform's outbound-abuse detection.
type AbuseConfig struct {
	// Disabled turns enforcement off entirely (for ablations, and for
	// live shards whose virtual clock stands still, so the window
	// never slides).
	Disabled bool
}

// sendRecord is one entry of an account's send window.
type sendRecord struct {
	at time.Time
	to string
}

// abuseDetector judges each outgoing message against the sender's
// send window, which lives on the account. It is guarded by the
// Service lock.
type abuseDetector struct {
	disabled bool
	// distinct is the recipient set a fan-out count fills, emptied and
	// reused on every count instead of allocated per send.
	distinct map[string]struct{}
}

func newAbuseDetector(cfg AbuseConfig) abuseDetector {
	return abuseDetector{disabled: cfg.Disabled, distinct: make(map[string]struct{})}
}

// recordSend registers one message a sends and returns a non-empty
// verdict string if the account should be suspended. Callers hold the
// Service lock.
func (d *abuseDetector) recordSend(a *account, to string, at time.Time) string {
	if d.disabled {
		return ""
	}
	recs := append(a.sends, sendRecord{at: at, to: to})
	// Trim entries that fell out of the window.
	cutoff := at.Add(-abuseWindow)
	start := 0
	for start < len(recs) && recs[start].at.Before(cutoff) {
		start++
	}
	recs = recs[start:]
	a.sends = recs

	if len(recs) > maxSendsPerWindow {
		return fmt.Sprintf("abuse: %d sends within %v", len(recs), abuseWindow)
	}
	// A window cannot hold more distinct recipients than records, so
	// most sends skip the count.
	if len(recs) <= maxRecipientsPerWindow {
		return ""
	}
	clear(d.distinct)
	for _, r := range recs {
		d.distinct[r.to] = struct{}{}
	}
	if len(d.distinct) > maxRecipientsPerWindow {
		return fmt.Sprintf("abuse: %d distinct recipients within %v", len(d.distinct), abuseWindow)
	}
	return ""
}
