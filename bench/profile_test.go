package main

import (
	"hash/crc32"
	"testing"
	"time"
)

var busySink uint32

// busyWork burns CPU in a function the test can find by name.
//
//go:noinline
func busyWork(d time.Duration) {
	buf := make([]byte, 4096)
	for end := time.Now().Add(d); time.Now().Before(end); {
		busySink += crc32.ChecksumIEEE(buf)
		buf[busySink%4096]++
	}
}

// TestProfileDecoder records a real CPU profile around a known busy
// function, decodes it with the benchmark's own reader and checks that
// both attribution rules put the busy function where they should: the
// benchmark's own code is load-generator work under both.
func TestProfileDecoder(t *testing.T) {
	raw, samples, err := profileCPU(func() error { busyWork(400 * time.Millisecond); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || len(samples) == 0 {
		t.Fatalf("profile of %d bytes decoded to %d samples", len(raw), len(samples))
	}
	var total, busy int64
	for _, s := range samples {
		if s.count <= 0 || s.ns <= 0 {
			t.Fatalf("sample with count %d and cpu %dns", s.count, s.ns)
		}
		total += s.count
		for _, fn := range s.frames {
			if fn == ownPkg+".busyWork" {
				busy += s.count
				break
			}
		}
	}
	// 400ms at 100Hz is about 40 ticks; a loaded host may deliver fewer.
	if total < 10 || busy*2 < total {
		t.Fatalf("busyWork is on %d of %d sampled ticks", busy, total)
	}
	a := attribute(samples)
	if a.callback["loadgen"] < 50 || a.self["loadgen"]+a.self["runtime"] < 50 {
		t.Fatalf("busy function attributed callback %v, self %v", a.callback, a.self)
	}
	if _, err := parseProfile(raw[:len(raw)/2]); err == nil {
		t.Fatal("a truncated profile decoded without error")
	}
}

// TestAttributionRules checks both rules on stacks shaped like the
// engine's: the callback rule names the first repository frame
// leafward of the innermost scheduler frame, and the self rule the
// innermost repository package, or the lock or runtime a leaf is in.
func TestAttributionRules(t *testing.T) {
	const (
		sched  = "repro/internal/simtime.(*Scheduler).Run"
		wheel  = "repro/internal/simtime.(*Wheel).fire"
		wiring = "repro/internal/honeynet.(*Experiment).Run.func1"
		run    = "repro/internal/honeynet.(*Experiment).Run"
	)
	mainFn := ownPkg + ".runFleetRep"
	cases := []struct {
		name           string
		frames         []string // leaf first
		callback, self string
	}{
		{"scan", []string{"repro/internal/webmail.(*Session).ListN", "repro/internal/appscript.(*Script).scan", wiring, wheel, sched, run, mainFn}, "appscript.scan", "webmail"},
		{"heartbeat", []string{"repro/internal/appscript.(*Script).heartbeat", wiring, sched, run, mainFn}, "appscript.heartbeat", "appscript"},
		{"scrape", []string{"runtime.mallocgc", "repro/internal/monitor.(*Monitor).scrape", sched, run}, "monitor.scrape", "runtime"},
		{"session", []string{"sync.(*Mutex).Lock", "repro/internal/webmail.(*Service).Login", "repro/internal/attacker.(*Actor).visit", sched, run}, "attacker.session", "sync_lock"},
		{"pickup", []string{"repro/internal/outlets.(*Registry).pickup", sched, run}, "outlets.pickup", "other"},
		{"malnet", []string{"repro/internal/malnet.(*Sandbox).exfil", sched, run}, "malnet", "other"},
		{"dispatch", []string{"repro/internal/simtime.(*heap).pop", sched, run}, "simtime.dispatch", "simtime"},
		{"inner scheduler wins", []string{"repro/internal/monitor.(*Monitor).scrape", sched, "repro/internal/attacker.(*Actor).visit", sched, run}, "monitor.scrape", "monitor"},
		{"gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc", "runtime"},
		{"setup", []string{"repro/internal/corpus.(*Generator).Mailbox", "repro/internal/honeynet.(*Experiment).Setup", mainFn}, "setup", "corpus"},
		{"snapshot", []string{"repro/internal/snapshot.(*Encoder).Account", "repro/internal/honeynet.(*Experiment).Snapshot", mainFn}, "snapshot", "snapshot"},
		{"finalize", []string{"repro/internal/analysis.Classify", "repro/internal/honeynet.(*Experiment).Aggregates", mainFn}, "analysis.finalize", "analysis"},
		{"router", []string{"syscall.Syscall", "repro/internal/livefleet.(*Router).serve"}, "router", "net"},
		{"scheduler", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "sched", "runtime"},
		{"benchmark", []string{"syscall.Syscall", "net.(*conn).Write", ownPkg + ".(*load).drive"}, "loadgen", "net"},
		{"unknown", []string{"runtime.memmove"}, "other", "runtime"},
	}
	for _, tc := range cases {
		if got := classifyCallback(tc.frames); got != tc.callback {
			t.Errorf("%s: callback rule gave %q, want %q", tc.name, got, tc.callback)
		}
		if got := classifySelf(tc.frames); got != tc.self {
			t.Errorf("%s: self rule gave %q, want %q", tc.name, got, tc.self)
		}
	}
}
