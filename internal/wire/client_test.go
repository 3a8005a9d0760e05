package wire

import (
	"context"
	"testing"
	"time"
)

// TestScheduleInterleavesConnections: request i of connection c is due
// at Start + (i·Conns + c)/Rate, so at 400 req/s over 4 connections the
// connections take turns every 2.5 ms.
func TestScheduleInterleavesConnections(t *testing.T) {
	start := time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC)
	s := Schedule{Start: start, Rate: 400, Conns: 4}
	for _, tc := range []struct {
		c, i int
		want time.Duration
	}{
		{0, 0, 0},
		{1, 0, 2500 * time.Microsecond},
		{2, 0, 5 * time.Millisecond},
		{3, 0, 7500 * time.Microsecond},
		{0, 1, 10 * time.Millisecond},
		{3, 9, 97500 * time.Microsecond},
	} {
		if got := s.Due(tc.c, tc.i).Sub(start); got != tc.want {
			t.Errorf("Due(%d, %d) = Start+%v, want Start+%v", tc.c, tc.i, got, tc.want)
		}
	}
}

// TestScheduleWait: an open loop waits for the due time, a closed loop
// not at all, and a cancelled context ends the wait.
func TestScheduleWait(t *testing.T) {
	ctx := context.Background()
	open := Schedule{Start: time.Now(), Rate: 100, Conns: 1}
	if due, err := open.Wait(ctx, 0, 2); err != nil || time.Now().Before(due) {
		t.Fatalf("open loop returned before request 2 was due (err %v)", err)
	}
	began := time.Now()
	if due, err := (Schedule{}).Wait(ctx, 0, 1000); err != nil || due.Before(began) {
		t.Fatalf("closed loop: due %v before the call at %v (err %v)", due, began, err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := open.Wait(cancelled, 0, 1<<20); err == nil {
		t.Fatal("wait on a cancelled context succeeded")
	}
}
