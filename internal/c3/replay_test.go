package c3

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/wire"
)

// stubC3 stands in for c3d: it answers "stats" with an 8-bit index,
// and answer returns the reply to the n-th other frame (from 1) of a
// connection; a nil reply leaves that frame unanswered.
func stubC3(t *testing.T, answer func(n int) []byte) string {
	t.Helper()
	srv := wire.NewServer("stub", func(c *wire.Conn) {
		n := 0
		c.Serve(func(frame []byte) bool {
			reply := []byte("{\"ok\":true,\"bits\":8}\n")
			if !bytes.Contains(frame, []byte(`"stats"`)) {
				n++
				if reply = answer(n); reply == nil {
					return true
				}
			}
			_, err := c.Write(reply)
			return err == nil
		})
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// TestReplayShowsStall: one connection sends 60 range queries at 200
// req/s and the third reply stalls 200 ms. Timing each query from its
// due time puts the wait of the queries queued behind the stall in
// their latency, so the median is far above a round trip.
func TestReplayShowsStall(t *testing.T) {
	addr := stubC3(t, func(n int) []byte {
		if n == 3 {
			time.Sleep(200 * time.Millisecond)
		}
		return []byte("{\"ok\":true}\n")
	})
	stats, err := Replay(ReplayConfig{Addr: addr, Queries: 60, Conns: 1, QPS: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 60 {
		t.Fatalf("%d requests, want 60", stats.Requests)
	}
	if p50 := stats.Hist.Quantile(0.5); p50 < 20*time.Millisecond {
		t.Fatalf("p50 %v behind a 200 ms stall, want at least 20ms", p50)
	}
}

// TestReplayCountsTimeout: a server that never answers a range query
// costs the first query its deadline. That is a timeout, not a
// protocol error, and it fails the replay.
func TestReplayCountsTimeout(t *testing.T) {
	addr := stubC3(t, func(int) []byte { return nil })
	stats, err := Replay(ReplayConfig{Addr: addr, Queries: 5, Conns: 1, Seed: 1, Timeout: 50 * time.Millisecond})
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("replay error %v, want a deadline expiry", err)
	}
	if stats.Timeouts != 1 || stats.Errors != 0 || stats.Requests != 1 {
		t.Fatalf("%d timeouts, %d errors over %d requests; want 1 timeout, 0 errors, 1 request",
			stats.Timeouts, stats.Errors, stats.Requests)
	}
}
