package webmail

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/simtime"
)

// byteConn is a scripted net.Conn: reads come from a fixed request
// stream, writes (the server's responses) accumulate in a buffer.
// Driving Server.ServeConn through it exercises the full wire path —
// bounded framing, decode, op dispatch, session binding, encode —
// without goroutines or real sockets, so the fuzzer stays
// deterministic and cannot deadlock.
type byteConn struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *byteConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *byteConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *byteConn) Close() error                     { return nil }
func (c *byteConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *byteConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *byteConn) SetDeadline(time.Time) error      { return nil }
func (c *byteConn) SetReadDeadline(time.Time) error  { return nil }
func (c *byteConn) SetWriteDeadline(time.Time) error { return nil }

// fuzzService builds a small live platform so fuzzed logins can bind
// real sessions and mailbox ops have state to hit.
func fuzzService(t *testing.T) *Service {
	t.Helper()
	start := time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)
	svc := NewService(Config{Clock: simtime.NewClock(start)})
	if err := svc.CreateAccount("fuzz@honeymail.example", "pw", "Fuzz Target"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Seed("fuzz@honeymail.example", FolderInbox, "peer@corp.example",
		"fuzz@honeymail.example", "wire transfer", "payment details attached", start.Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}
	return svc
}

// FuzzServerConn feeds arbitrary bytes to the webmaild wire protocol
// (newline-delimited JSON over one connection). The contract under
// fuzzing: the server never panics, drops the connection on the first
// bad frame, and every byte it writes back is a well-formed Response.
func FuzzServerConn(f *testing.F) {
	login := `{"op":"login","account":"fuzz@honeymail.example","password":"pw","ip":"203.0.113.7","city":"Paris","country":"France","lat":48.85,"lon":2.35,"user_agent":"Mozilla/5.0"}` + "\n"
	seeds := []string{
		// A full benign session: login then every mailbox op.
		login + `{"op":"list","folder":"inbox"}` + "\n" +
			`{"op":"search","query":"transfer"}` + "\n" +
			`{"op":"read","id":1}` + "\n" +
			`{"op":"star","id":1}` + "\n" +
			`{"op":"draft","to":"x@y.example","subject":"hi","body":"draft body"}` + "\n" +
			`{"op":"send","to":"x@y.example","subject":"hi","body":"sent body"}` + "\n" +
			`{"op":"activity"}` + "\n" +
			`{"op":"delete","id":1}` + "\n" +
			`{"op":"chpass","password":"newpw"}` + "\n",
		// Ops before login are rejected per-frame.
		`{"op":"list","folder":"inbox"}` + "\n",
		// Login with an unparsable origin IP.
		`{"op":"login","account":"fuzz@honeymail.example","password":"pw","ip":"not-an-ip"}` + "\n",
		// Tor login (no geolocation).
		`{"op":"login","account":"fuzz@honeymail.example","password":"pw","ip":"198.51.100.9","tor":true}` + "\n" + `{"op":"activity"}` + "\n",
		// Wrong password, unknown op, bad folder, absent message id.
		`{"op":"login","account":"fuzz@honeymail.example","password":"nope","ip":"203.0.113.7"}` + "\n",
		login + `{"op":"frobnicate"}` + "\n",
		login + `{"op":"list","folder":"attic"}` + "\n",
		login + `{"op":"read","id":999999}` + "\n",
		// Frame-level garbage.
		"{\"op\":\n",
		"not json at all\n",
		`{"op":"login"`,
		"\x00\x01\x02",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		svc := fuzzService(t)
		srv := NewServer(svc)
		conn := &byteConn{in: bytes.NewReader(data)}
		srv.ServeConn(conn)

		// Every reply frame the server produced must decode as a
		// Response — half-written or interleaved frames would desync
		// real clients.
		dec := json.NewDecoder(bytes.NewReader(conn.out.Bytes()))
		for {
			var resp Response
			if err := dec.Decode(&resp); err != nil {
				if err == io.EOF {
					break
				}
				t.Fatalf("server wrote a malformed response frame: %v\nstream: %q", err, conn.out.String())
			}
			if !resp.OK && resp.Error == "" {
				t.Fatalf("failure response without an error message: %+v", resp)
			}
		}
	})
}
