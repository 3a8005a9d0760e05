package sinkhole

import (
	"bytes"
	"io"
	"net"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// scriptConn is a scripted net.Conn: reads come from in, writes (the
// server's replies) accumulate in out, and read counts the bytes the
// session consumed. Driving Server.ServeConn through it runs the whole
// session — greeting, bounded framing, verbs, DATA — without sockets,
// so the fuzzer stays deterministic.
type scriptConn struct {
	in   io.Reader
	read int
	out  bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error) {
	n, err := c.in.Read(p)
	c.read += n
	return n, err
}
func (c *scriptConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// flood yields n bytes of one unterminated line without allocating it.
type flood struct{ n int }

func (f *flood) Read(p []byte) (int, error) {
	if f.n == 0 {
		return 0, io.EOF
	}
	p = p[:min(len(p), f.n)]
	for i := range p {
		p[i] = 'x'
	}
	f.n -= len(p)
	return len(p), nil
}

var replyLine = regexp.MustCompile(`^[0-9]{3} [^\r\n]*\r\n$`)

// FuzzSMTPSession feeds one sinkhole session the client bytes script,
// then floodLen mod 2·wire.MaxFrame bytes of a line that never ends —
// the way to reach the frame bound without committing megabyte seeds.
// The contract: no panic; every reply line is "NNN text\r\n"; at most
// one mail is captured per DATA command per recipient; and a request
// longer than wire.MaxFrame ends the session there, so the session
// reads at most one bound (plus buffering) past the script.
func FuzzSMTPSession(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte, floodLen uint32) {
		conn := &scriptConn{in: io.MultiReader(bytes.NewReader(script), &flood{n: int(floodLen % (2 * wire.MaxFrame))})}
		store := NewStore(fixedNow)
		NewServer(store).ServeConn(conn)

		replies := conn.out.String()
		if !strings.HasPrefix(replies, "220 ") {
			t.Fatalf("session did not open with a 220 greeting: %q", replies)
		}
		for _, line := range strings.SplitAfter(replies, "\r\n") {
			if line != "" && !replyLine.MatchString(line) {
				t.Fatalf("malformed reply line %q", line)
			}
		}
		var datas, rcpts int
		for _, line := range strings.Split(string(script), "\n") {
			verb := strings.ToUpper(strings.TrimRight(line, "\r"))
			if verb == "DATA" {
				datas++
			}
			if strings.HasPrefix(verb, "RCPT TO:") {
				rcpts++
			}
		}
		if store.Count() > datas*rcpts {
			t.Fatalf("captured %d mails from %d DATA commands and %d recipients", store.Count(), datas, rcpts)
		}
		if limit := len(script) + wire.MaxFrame + 2*4096; conn.read > limit {
			t.Fatalf("session read %d bytes, want at most %d: a request past wire.MaxFrame must end it", conn.read, limit)
		}
	})
}
