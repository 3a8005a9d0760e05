package livefleet

import (
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/webmail"
	"repro/internal/wire"
)

// transcript sends input, then one valid probe frame, then half-closes,
// and returns every byte the server wrote before closing. A connection
// the input dropped never answers the probe, so equal transcripts mean
// equal replies and equal close behaviour.
func transcript(t *testing.T, addr, input string) string {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	// Write errors are expected once the server drops the connection.
	if _, err := io.WriteString(conn, input+`{"op":"list"}`+"\n"); err == nil {
		conn.(*net.TCPConn).CloseWrite()
	}
	out, err := io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("input %.40q: the server neither answered nor closed", input)
	}
	return string(out)
}

// TestFramingShardAndRouterAgree: one framing rule — a frame is exactly
// one JSON object followed by '\n', at most wire.MaxFrame bytes — so a
// shard and the router in front of it answer, or drop, the same input
// byte for byte.
func TestFramingShardAndRouterAgree(t *testing.T) {
	path := buildTestSnapshot(t, 2)
	svc, _, err := BootService(path, 0, 1, svcConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := webmail.NewServer(svc)
	shard, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	router, err := NewRouter(RouterConfig{Shards: []string{shard}, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	raddr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })

	notLoggedIn := `{"ok":false,"error":"webmail: not logged in"}` + "\n"
	// sized is a list frame of exactly n bytes, newline included.
	sized := func(n int) string {
		head, tail := `{"op":"list","query":"`, `"}`+"\n"
		return head + strings.Repeat("q", n-len(head)-len(tail)) + tail
	}
	for _, tc := range []struct {
		name, input string
		answered    bool // the input is served and the probe answered too
	}{
		{"one object", `{"op":"list"}` + "\n", true},
		{"CRLF and padding", ` {"op":"list"} ` + "\r\n", true},
		{"frame at the bound", sized(wire.MaxFrame), true},
		{"leading blank line", "\n" + `{"op":"list"}` + "\n", false},
		{"two objects on one line", `{"op":"list"} {"op":"list"}` + "\n", false},
		{"object split across lines", `{"op":` + "\n" + `"list"}` + "\n", false},
		{"bare value", "null\n", false},
		{"not JSON", "list\n", false},
		{"frame over the bound", sized(wire.MaxFrame + 1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			direct, routed := transcript(t, shard, tc.input), transcript(t, raddr, tc.input)
			if direct != routed {
				t.Fatalf("shard replied %q, router replied %q", direct, routed)
			}
			want := ""
			if tc.answered {
				want = notLoggedIn + notLoggedIn
			}
			if direct != want {
				t.Fatalf("replies = %q, want %q", direct, want)
			}
		})
	}
}
