package sinkhole

import (
	"sync/atomic"
	"time"
)

// Store is a sinkhole: it accepts every message, counts it, and keeps
// nothing else. The zero value is ready to use, and it is safe for
// concurrent use.
type Store struct{ n atomic.Int64 }

// Deliver implements webmail.Outbound: the mail is counted and
// intentionally goes nowhere.
func (s *Store) Deliver(_, _, _, _ string, _ time.Time) error {
	s.n.Add(1)
	return nil
}

// Count returns the number of messages delivered.
func (s *Store) Count() int { return int(s.n.Load()) }
