package sinkhole

import (
	"sync"
	"time"
)

// StoredMail is one captured outbound message.
type StoredMail struct {
	From     string
	To       string
	Subject  string
	Body     string
	Received time.Time
}

// Store is the captured-mail archive. It is safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	mails []StoredMail
	now   func() time.Time
}

// NewStore returns a Store stamping messages with the given clock
// function (the simulation passes the virtual clock's Now).
func NewStore(now func() time.Time) *Store {
	if now == nil {
		now = time.Now
	}
	return &Store{now: now}
}

// Deliver implements webmail.Outbound: the mail is archived and
// intentionally goes nowhere else.
func (s *Store) Deliver(from, to, subject, body string, at time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if at.IsZero() {
		at = s.now()
	}
	s.mails = append(s.mails, StoredMail{From: from, To: to, Subject: subject, Body: body, Received: at})
	return nil
}

// All returns a copy of every captured message.
func (s *Store) All() []StoredMail {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StoredMail, len(s.mails))
	copy(out, s.mails)
	return out
}

// Count returns the number of captured messages.
func (s *Store) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mails)
}
