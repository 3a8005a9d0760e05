package wire_test

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/c3"
	"repro/internal/livefleet"
	"repro/internal/simtime"
	"repro/internal/webmail"
)

func startShard(t *testing.T) string {
	t.Helper()
	svc := webmail.NewService(webmail.Config{Clock: simtime.NewClock(time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC))})
	srv := webmail.NewServer(svc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// TestOversizedFrameDropsConnection sends one unterminated 64 MiB frame
// to each of the three servers. Each must drop the connection without a
// reply after reading about MaxFrame of it, so the server's heap stays
// flat instead of buffering the whole frame.
func TestOversizedFrameDropsConnection(t *testing.T) {
	servers := []struct {
		name  string
		start func(t *testing.T) string
	}{
		{name: "webmail", start: startShard},
		{name: "router", start: func(t *testing.T) string {
			router, err := livefleet.NewRouter(livefleet.RouterConfig{Shards: []string{startShard(t)}, HealthInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			addr, err := router.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { router.Close() })
			return addr
		}},
		{name: "c3", start: func(t *testing.T) string {
			store, err := c3.New(c3.Config{BucketBits: 8})
			if err != nil {
				t.Fatal(err)
			}
			srv := c3.NewServer(store)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			return addr
		}},
	}
	const (
		flood     = 64 << 20
		heapBound = 4 << 20
	)
	filler := bytes.Repeat([]byte{'a'}, 64<<10)
	for _, srv := range servers {
		t.Run(srv.name, func(t *testing.T) {
			addr := srv.start(t)
			conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			conn.SetDeadline(time.Now().Add(30 * time.Second))
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)

			// The opening of a plausible JSON frame that never ends.
			_, err = conn.Write([]byte(`{"op":"login","account":"`))
			for sent := 0; err == nil && sent < flood; sent += len(filler) {
				_, err = conn.Write(filler) // fails once the server hangs up
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			n, err := br.Read(make([]byte, 1))
			if n > 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("after the oversized frame: read %d bytes, err %v; want the connection dropped without a reply", n, err)
			}

			runtime.GC()
			runtime.ReadMemStats(&after)
			if growth := int64(after.HeapInuse) - int64(before.HeapInuse); growth > heapBound {
				t.Errorf("HeapInuse grew %.1f MiB on one unterminated frame, want under %d MiB", float64(growth)/(1<<20), heapBound>>20)
			}
		})
	}
}
