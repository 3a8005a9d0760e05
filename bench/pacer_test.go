package main

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"
)

// TestPacerTimesFromDueTime replays an open loop against a fake server
// that answers at once except for one 50ms stall. The requests due
// during the stall wait behind it, so their latency, timed from when
// each was due, and the generator's lateness must both show the stall;
// a pacer that started the clock at send time would report them fast.
func TestPacerTimesFromDueTime(t *testing.T) {
	const (
		stallAt = 100
		stall   = 50 * time.Millisecond
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for i := 0; ; i++ {
			if _, err := br.ReadBytes('\n'); err != nil {
				return
			}
			if i == stallAt {
				time.Sleep(stall)
			}
			if _, err := conn.Write([]byte(`{"ok":true}` + "\n")); err != nil {
				return
			}
		}
	}()
	frames := make([][]byte, 400)
	for i := range frames {
		frames[i] = []byte(`{"op":"ping"}` + "\n")
	}
	l := &load{
		addr: ln.Addr().String(), rate: 1000, dur: 400 * time.Millisecond,
		frames:  [][][]byte{frames},
		check:   func(_, _ int, reply []byte) error { return checkOK(reply) },
		timeout: time.Second,
	}
	r, err := l.run()
	ln.Close()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.sent != len(frames) || len(r.lat) != len(frames) {
		t.Fatalf("sent %d, failed %d, recorded %d of %d: %v", r.sent, r.failed, len(r.lat), len(frames), r.errs)
	}
	// One connection records its requests in schedule order; the next
	// request was due 1ms after the stalled one.
	if r.lat[stallAt] < stall {
		t.Errorf("stalled request took %v, want at least %v", r.lat[stallAt], stall)
	}
	if next := r.lat[stallAt+1]; next < stall-5*time.Millisecond {
		t.Errorf("request due during the stall took %v from its due time, want about %v", next, stall)
	}
	if late := r.late[stallAt+1]; late < stall-5*time.Millisecond {
		t.Errorf("request due during the stall went out %v late, want about %v", late, stall)
	}
	// About 50 of the 400 requests were due during the stall, so the
	// p99 lateness the benchmark reports as loadgen.late_ms shows it.
	if late := r.lateP99(); late < stall/2 {
		t.Errorf("p99 lateness %v hides the %v stall", late, stall)
	}
}
