package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"
)

// The pacer drives the serving workloads. Each connection carries its
// own ordered stream of frames — the wire protocols are session
// oriented, so a connection sends its next request only after the
// previous reply. Frame i of connection c is due at
//
//	start + (i·conns + c) / rate
//
// so the connections interleave into one schedule at the given rate.
// Every request is timed from its due time, not from when it went out:
// a slow reply delays the requests queued behind it, and that wait
// shows in their latency instead of vanishing from the sample. How far
// behind schedule each send went out is the generator's lateness.
// With rate 0 the connections run closed loop, each sending as soon as
// its previous reply arrives, until the load's duration is over: the
// most a client that keeps the protocol's one request per connection
// outstanding can get, which is how the benchmark measures capacity.
type load struct {
	addr string
	rate float64
	// warm is the leading part of the schedule whose requests are sent
	// and checked but not recorded; dur is the recorded part. A closed
	// loop runs for warm+dur.
	warm, dur time.Duration
	// frames[c] is the frame stream of connection c, each frame ending
	// in a newline.
	frames [][][]byte
	// cyclic lets a closed loop start over at a stream's first frame
	// when it runs out, for protocols without session state. A closed
	// loop that runs out of frames before its time is up fails.
	cyclic bool
	// An open loop sends every frame; a closed loop stops when its time
	// is up. check validates the reply to frame i of connection c; the
	// reply is valid only during the call.
	check   func(c, i int, reply []byte) error
	timeout time.Duration
	// Per-request spans, traced pass only: named by name(c, i), under
	// span parent.
	tr     *tracer
	parent int64
	name   func(c, i int) string
}

// loadResult is what one load measured.
type loadResult struct {
	// lat holds the recorded requests' latencies from their due times;
	// late how far behind schedule each was sent.
	lat, late []time.Duration
	// lateLast is the lateness of the requests due in the final second
	// of the schedule: a growing backlog shows here.
	lateLast []time.Duration
	// completed counts the replies a closed loop received within dur.
	completed int
	sent      int
	failed    int
	errs      []string
}

// lateP99 is the generator's p99 lateness over the recorded requests.
func (r *loadResult) lateP99() time.Duration {
	return quantile(sortDurations(r.late), 0.99)
}

// dial opens one connection per frame stream.
func (l *load) dial() ([]net.Conn, error) {
	conns := make([]net.Conn, len(l.frames))
	for i := range conns {
		conn, err := net.DialTimeout("tcp", l.addr, l.timeout)
		if err != nil {
			for _, c := range conns[:i] {
				c.Close()
			}
			return nil, fmt.Errorf("bench: dial %s: %w", l.addr, err)
		}
		conns[i] = conn
	}
	return conns, nil
}

// merge combines the connections' tallies.
func merge(tallies []loadResult) *loadResult {
	out := &loadResult{}
	for i := range tallies {
		t := &tallies[i]
		out.lat = append(out.lat, t.lat...)
		out.late = append(out.late, t.late...)
		out.lateLast = append(out.lateLast, t.lateLast...)
		out.completed += t.completed
		out.sent += t.sent
		out.failed += t.failed
		if len(out.errs) < 3 {
			out.errs = append(out.errs, t.errs...)
		}
	}
	return out
}

// run dials every connection, then drives the schedule and waits for
// every connection to finish.
func (l *load) run() (*loadResult, error) {
	conns, err := l.dial()
	if err != nil {
		return nil, err
	}
	tallies := make([]loadResult, len(conns))
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l.drive(c, conns[c], start, &tallies[c])
		}(c)
	}
	wg.Wait()
	return merge(tallies), nil
}

// drive runs connection c's part of the schedule and closes the
// connection.
func (l *load) drive(c int, conn net.Conn, start time.Time, t *loadResult) {
	defer conn.Close()
	closed := l.rate <= 0
	if !closed {
		// Precise waits need a thread of our own (see lowerTimerSlack
		// and pinThread); the thread is never unlocked, so it exits with
		// this goroutine. A closed loop never waits and keeps the
		// cheaper shared threads.
		runtime.LockOSThread()
		lowerTimerSlack()
		pinThread(c)
	}
	n := len(l.frames[c])
	conns := len(l.frames)
	recordFrom := start.Add(l.warm)
	end := start.Add(l.warm + l.dur)
	lastSecond := end.Add(-time.Second)
	if !closed {
		total := 0
		for _, f := range l.frames {
			total += len(f)
		}
		lastSecond = start.Add(time.Duration(float64(total)/l.rate*float64(time.Second)) - time.Second)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	var line []byte
	sleepUntil(start)
	for i := 0; ; i++ {
		if i == n && closed && l.cyclic {
			i = 0
		}
		if i == n {
			if closed && time.Now().Before(end) {
				t.failed++
				t.errs = append(t.errs, "ran out of frames before the time was up")
			}
			return
		}
		var due time.Time
		if closed {
			due = time.Now()
			if !due.Before(end) {
				return
			}
		} else {
			due = start.Add(time.Duration(float64(i*conns+c) / l.rate * float64(time.Second)))
			sleepUntil(due)
		}
		sent := time.Now()
		t.sent++
		conn.SetDeadline(sent.Add(l.timeout))
		_, err := conn.Write(l.frames[c][i])
		if err == nil {
			line, err = readLine(br, line[:0])
		}
		done := time.Now()
		if err != nil {
			// The session is gone: every request still scheduled on
			// this connection fails with it.
			t.sent += n - i - 1
			t.failed += n - i
			t.errs = append(t.errs, err.Error())
			return
		}
		if err := l.check(c, i, line); err != nil {
			t.failed++
			if len(t.errs) < 3 {
				t.errs = append(t.errs, err.Error())
			}
		}
		if closed {
			if !due.Before(recordFrom) && done.Before(end) {
				t.completed++
				t.lat = append(t.lat, done.Sub(due))
			}
		} else if !due.Before(recordFrom) {
			t.lat = append(t.lat, done.Sub(due))
			t.late = append(t.late, sent.Sub(due))
			if !due.Before(lastSecond) {
				t.lateLast = append(t.lateLast, sent.Sub(due))
			}
		}
		if l.tr != nil {
			l.tr.request(l.name(c, i), l.parent, int64(i*conns+c), due, done)
		}
	}
}

// readLine reads one newline-terminated reply into buf.
func readLine(br *bufio.Reader, buf []byte) ([]byte, error) {
	for {
		chunk, err := br.ReadSlice('\n')
		buf = append(buf, chunk...)
		if err == nil {
			return buf, nil
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return buf, err
		}
	}
}

// sleepUntil waits for t: the runtime timer for the bulk of a long
// wait (it wakes on a millisecond grid), then one precise sleep.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d > 2*time.Millisecond {
		time.Sleep(d - 1500*time.Microsecond)
		d = time.Until(t)
	}
	if d > 0 {
		preciseSleep(d)
	}
}

var okPrefix = []byte(`{"ok":true`)

// checkOK accepts a reply whose ok field is true. Both wire protocols
// encode ok as the first field, so the prefix decides it.
func checkOK(reply []byte) error {
	if bytes.HasPrefix(reply, okPrefix) {
		return nil
	}
	if len(reply) > 120 {
		reply = reply[:120]
	}
	return fmt.Errorf("rejected: %s", bytes.TrimSpace(reply))
}
