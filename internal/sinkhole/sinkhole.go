package sinkhole

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Sender is the envelope sender every honey account's outgoing mail
// carries (the account's send-from override), so replies and bounces
// land in the sinkhole domain.
const Sender = "capture@sinkhole.example"

// Store is a sinkhole: it accepts every message sent from Sender,
// counts it, and keeps nothing else. The zero value is ready to use,
// and it is safe for concurrent use.
type Store struct{ n atomic.Int64 }

// Deliver implements webmail.Outbound: mail from Sender is counted and
// intentionally goes nowhere. Mail with any other envelope sender
// escaped the send-from override; it is refused and not counted, so
// the count falls below the platform's journaled sends.
func (s *Store) Deliver(from, _, _, _ string, _ time.Time) error {
	if from != Sender {
		return fmt.Errorf("sinkhole: refused mail from %q, want envelope sender %s", from, Sender)
	}
	s.n.Add(1)
	return nil
}

// Count returns the number of messages delivered.
func (s *Store) Count() int { return int(s.n.Load()) }
