package honeynet

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
)

// TestServiceDoesNotRetainShardEngines pins what a finished
// experiment's seeded-contents view keeps alive. The scenario matrix
// hands every scenario's SeededContents back to its caller after the
// run, so anything the view reaches outlives the experiment: the view
// holds every shard's webmail.Service, and a per-account hook that
// captured a callback would pin every shard's scheduler, trigger wheel
// and attacker engines with it. Keeping only the view, every shard's
// scheduler must become garbage.
func TestServiceDoesNotRetainShardEngines(t *testing.T) {
	cfg := fastConfig(3)
	cfg.Duration = 14 * 24 * time.Hour
	cfg.Shards = 2
	contents, freed, total := runKeepingContents(t, cfg)

	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() < total && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := freed.Load(); got != total {
		t.Fatalf("%d of %d shard schedulers still reachable from the seeded contents", total-got, total)
	}
	messages := 0
	contents.Each(func(string, int64, string, string) { messages++ })
	if want := contents.Accounts() * cfg.MailboxSize; messages != want || want == 0 {
		t.Fatalf("seeded contents hold %d messages, want %d", messages, want)
	}
}

// runKeepingContents runs one experiment to completion and returns
// only its SeededContents. Each shard scheduler gets a pending
// far-future event holding a sentinel with a finalizer that counts
// frees. The finalizer sits on the sentinel rather than the scheduler
// itself because a scheduler is reachable from its own pending events
// (Every chains reschedule through it), and the collector never runs a
// finalizer on an object in a cycle. The sentinel points at nothing,
// so it is freed exactly when its scheduler is.
func runKeepingContents(t *testing.T, cfg Config) (contents analysis.ContentsView, freed *atomic.Int32, total int32) {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []func() error{e.Setup, e.Leak, e.Run} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	freed = new(atomic.Int32)
	for _, sh := range e.shards {
		sentinel := new([64]byte)
		runtime.SetFinalizer(sentinel, func(*[64]byte) { freed.Add(1) })
		sh.sched.After(100*365*24*time.Hour, "retention-sentinel", func(time.Time) { runtime.KeepAlive(sentinel) })
	}
	return e.SeededContents(), freed, int32(len(e.shards))
}
