package sinkhole

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

var epoch = time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)

func fixedNow() time.Time { return epoch }

func TestStoreDeliverAndQuery(t *testing.T) {
	st := NewStore(fixedNow)
	if err := st.Deliver("a@x", "b@y", "subj", "body", epoch.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := st.Deliver("a@x", "c@z", "subj2", "body2", time.Time{}); err != nil {
		t.Fatal(err)
	}
	if st.Count() != 2 {
		t.Fatalf("count = %d", st.Count())
	}
	all := st.All()
	if all[0].Received != epoch.Add(time.Hour) {
		t.Fatalf("explicit timestamp lost: %v", all[0].Received)
	}
	if all[1].Received != epoch {
		t.Fatalf("zero timestamp should use clock: %v", all[1].Received)
	}
	byRcpt := st.ByRecipient("c@z")
	if len(byRcpt) != 1 || byRcpt[0].Subject != "subj2" {
		t.Fatalf("ByRecipient = %+v", byRcpt)
	}
}

func TestStoreNeverForwards(t *testing.T) {
	// The Outbound contract: Deliver always succeeds and has no side
	// effects beyond the archive.
	st := NewStore(fixedNow)
	for i := 0; i < 100; i++ {
		if err := st.Deliver("spammer@honey", "victim@real", "buy", "spam", epoch); err != nil {
			t.Fatal(err)
		}
	}
	if st.Count() != 100 {
		t.Fatalf("count = %d", st.Count())
	}
}

func newServer(t *testing.T) (*Store, string) {
	t.Helper()
	st := NewStore(fixedNow)
	srv := NewServer(st)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return st, addr
}

func TestSMTPRoundTrip(t *testing.T) {
	st, addr := newServer(t)
	err := Send(addr, "blackmailer@honey.example", "target@victims.example",
		"Payment required", "Send bitcoin to the wallet below.\nTutorial attached.")
	if err != nil {
		t.Fatal(err)
	}
	mails := st.All()
	if len(mails) != 1 {
		t.Fatalf("stored = %d", len(mails))
	}
	m := mails[0]
	if m.From != "blackmailer@honey.example" || m.To != "target@victims.example" {
		t.Fatalf("envelope = %+v", m)
	}
	if m.Subject != "Payment required" {
		t.Fatalf("subject = %q", m.Subject)
	}
	if !strings.Contains(m.Body, "bitcoin") {
		t.Fatalf("body = %q", m.Body)
	}
}

func TestSMTPMultipleRecipients(t *testing.T) {
	st, addr := newServer(t)
	// Hand-rolled session with two RCPT TO lines.
	err := withRawSession(t, addr, []string{
		"HELO x", "MAIL FROM:<a@honey>", "RCPT TO:<v1@x>", "RCPT TO:<v2@x>",
		"DATA",
	}, "Subject: s\r\n\r\nspam\r\n.", "QUIT")
	if err != nil {
		t.Fatal(err)
	}
	if st.Count() != 2 {
		t.Fatalf("count = %d, want one copy per recipient", st.Count())
	}
}

func TestSMTPDotStuffing(t *testing.T) {
	st, addr := newServer(t)
	if err := Send(addr, "a@x", "b@y", "s", "line1\n.leading dot"); err != nil {
		t.Fatal(err)
	}
	if got := st.All()[0].Body; got != "line1\n.leading dot" {
		t.Fatalf("body = %q", got)
	}
}

func TestSMTPRsetClearsEnvelope(t *testing.T) {
	st, addr := newServer(t)
	err := withRawSession(t, addr, []string{
		"HELO x", "MAIL FROM:<a@honey>", "RCPT TO:<v1@x>", "RSET",
		"MAIL FROM:<b@honey>", "RCPT TO:<v2@x>", "DATA",
	}, "Subject: after-rset\r\n\r\nbody\r\n.", "QUIT")
	if err != nil {
		t.Fatal(err)
	}
	mails := st.All()
	if len(mails) != 1 || mails[0].From != "b@honey" || mails[0].To != "v2@x" {
		t.Fatalf("mails = %+v", mails)
	}
}

func TestSMTPIgnoresUnknownVerbs(t *testing.T) {
	st, addr := newServer(t)
	err := withRawSession(t, addr, []string{
		"HELO x", "XUNKNOWN whatever", "MAIL FROM:<a@honey>", "RCPT TO:<v@x>", "DATA",
	}, "Subject: s\r\n\r\nb\r\n.", "QUIT")
	if err != nil {
		t.Fatal(err)
	}
	if st.Count() != 1 {
		t.Fatalf("count = %d", st.Count())
	}
}

func TestSMTPConcurrentSenders(t *testing.T) {
	st, addr := newServer(t)
	const n = 10
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- Send(addr, "bot@honey", "victim@x", "spam", "payload")
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st.Count() != n {
		t.Fatalf("count = %d, want %d", st.Count(), n)
	}
}

func TestServerClose(t *testing.T) {
	st := NewStore(fixedNow)
	srv := NewServer(st)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Send(addr, "a@x", "b@y", "s", "b"); err == nil {
		t.Fatal("send after close succeeded")
	}
}

// TestSMTPDataBoundedAsWhole: a DATA payload is one request, so short
// lines that add up past wire.MaxFrame end the session unanswered and
// capture nothing.
func TestSMTPDataBoundedAsWhole(t *testing.T) {
	line := strings.Repeat("x", 1022) + "\r\n"
	script := "MAIL FROM:<a@honey>\r\nRCPT TO:<v@x>\r\nDATA\r\n" +
		strings.Repeat(line, wire.MaxFrame/len(line)+1) + ".\r\nQUIT\r\n"
	conn := &scriptConn{in: strings.NewReader(script)}
	st := NewStore(fixedNow)
	NewServer(st).ServeConn(conn)
	if got := conn.out.String(); !strings.HasSuffix(got, "354 end data with <CRLF>.<CRLF>\r\n") {
		t.Fatalf("replies = %q, want the session to end inside DATA", got)
	}
	if st.Count() != 0 {
		t.Fatalf("captured %d mails from an oversized payload", st.Count())
	}
}

// withRawSession drives a scripted SMTP exchange: each command waits
// for any reply; data is sent after the DATA 354 response.
func withRawSession(t *testing.T, addr string, cmds []string, data, final string) error {
	t.Helper()
	return rawSession(addr, cmds, data, final)
}

func rawSession(addr string, cmds []string, data, final string) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	readLine := func() (string, error) { return r.ReadString('\n') }
	writeLine := func(s string) error {
		if _, err := w.WriteString(s + "\r\n"); err != nil {
			return err
		}
		return w.Flush()
	}
	if _, err := readLine(); err != nil { // banner
		return err
	}
	for _, c := range cmds {
		if err := writeLine(c); err != nil {
			return err
		}
		if _, err := readLine(); err != nil {
			return err
		}
	}
	if err := writeLine(data); err != nil {
		return err
	}
	if _, err := readLine(); err != nil {
		return err
	}
	if err := writeLine(final); err != nil {
		return err
	}
	_, err = readLine()
	return err
}
