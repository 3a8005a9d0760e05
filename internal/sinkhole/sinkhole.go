package sinkhole

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/wire"
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

// ByRecipient returns captured mail addressed to the given recipient.
func (s *Store) ByRecipient(to string) []StoredMail {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []StoredMail
	for _, m := range s.mails {
		if m.To == to {
			out = append(out, m)
		}
	}
	return out
}

// Server is the TCP front end speaking an SMTP subset. Listen, Close
// and Drain come from the shared wire layer; a session mid-command,
// DATA payload included, finishes that command's reply on a drain.
type Server struct {
	*wire.Server
	store *Store
}

// NewServer wraps a store.
func NewServer(store *Store) *Server {
	s := &Server{store: store}
	s.Server = wire.NewServer("sinkhole", s.serve)
	return s
}

// serve handles one SMTP-subset session. The grammar is deliberately
// permissive: a sinkhole's job is to swallow whatever arrives.
func (s *Server) serve(c *wire.Conn) {
	w := bufio.NewWriter(c)
	say := func(code int, msg string) bool {
		fmt.Fprintf(w, "%d %s\r\n", code, msg)
		return w.Flush() == nil
	}
	if !say(220, "sinkhole.example service ready") {
		return
	}
	var from string
	var rcpts []string
	// Each command line is one request; handling it reports false on a
	// dead client or a QUIT.
	c.Serve(func(frame []byte) bool {
		line := strings.TrimRight(string(frame), "\r\n")
		verb := strings.ToUpper(line)
		switch {
		case strings.HasPrefix(verb, "HELO") || strings.HasPrefix(verb, "EHLO"):
			return say(250, "sinkhole greets you")
		case strings.HasPrefix(verb, "MAIL FROM:"):
			from = strings.Trim(line[len("MAIL FROM:"):], " <>")
			rcpts = nil
			return say(250, "ok")
		case strings.HasPrefix(verb, "RCPT TO:"):
			rcpts = append(rcpts, strings.Trim(line[len("RCPT TO:"):], " <>"))
			return say(250, "ok")
		case verb == "DATA":
			if !say(354, "end data with <CRLF>.<CRLF>") {
				return false
			}
			subject, body, err := readData(c)
			if err != nil {
				return false
			}
			at := s.store.now()
			for _, to := range rcpts {
				s.store.Deliver(from, to, subject, body, at)
			}
			return say(250, "swallowed")
		case verb == "QUIT":
			say(221, "bye")
			return false
		case verb == "RSET":
			from, rcpts = "", nil
			return say(250, "ok")
		case verb == "NOOP":
			return say(250, "ok")
		default:
			// Sinkholes do not argue with clients.
			return say(250, "ok (ignored)")
		}
	})
}

// readData consumes a DATA payload up to the lone-dot terminator and
// splits out a Subject: header if one is present. The payload belongs
// to the DATA request, so wire.MaxFrame bounds it as a whole.
func readData(c *wire.Conn) (subject, body string, err error) {
	var lines []string
	for {
		frame, err := c.ReadFrame()
		if err != nil {
			return "", "", err
		}
		line := strings.TrimRight(string(frame), "\r\n")
		if line == "." {
			break
		}
		// Dot-stuffing per RFC 5321 §4.5.2.
		line = strings.TrimPrefix(line, ".")
		lines = append(lines, line)
	}
	bodyStart := 0
	for i, l := range lines {
		if strings.HasPrefix(strings.ToLower(l), "subject:") {
			subject = strings.TrimSpace(l[len("subject:"):])
		}
		if l == "" {
			bodyStart = i + 1
			break
		}
	}
	return subject, strings.Join(lines[bodyStart:], "\n"), nil
}

// Send is a minimal client helper used by tests and examples to push
// one message through a sinkhole server over TCP.
func Send(addr, from, to, subject, body string) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("sinkhole: dial: %w", err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	expect := func(code string) error {
		line, err := r.ReadString('\n')
		if err != nil {
			return fmt.Errorf("sinkhole: read: %w", err)
		}
		if !strings.HasPrefix(line, code) {
			return fmt.Errorf("sinkhole: unexpected reply %q", strings.TrimSpace(line))
		}
		return nil
	}
	send := func(line string) error {
		if _, err := fmt.Fprintf(w, "%s\r\n", line); err != nil {
			return err
		}
		return w.Flush()
	}
	if err := expect("220"); err != nil {
		return err
	}
	steps := []struct{ cmd, code string }{
		{"HELO honeynet", "250"},
		{"MAIL FROM:<" + from + ">", "250"},
		{"RCPT TO:<" + to + ">", "250"},
		{"DATA", "354"},
	}
	for _, st := range steps {
		if err := send(st.cmd); err != nil {
			return err
		}
		if err := expect(st.code); err != nil {
			return err
		}
	}
	payload := fmt.Sprintf("Subject: %s\r\n\r\n%s\r\n.", subject, strings.ReplaceAll(body, "\n.", "\n.."))
	if err := send(payload); err != nil {
		return err
	}
	if err := expect("250"); err != nil {
		return err
	}
	if err := send("QUIT"); err != nil {
		return err
	}
	return expect("221")
}
