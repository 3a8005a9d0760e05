package appscript

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/webmail"
)

// refRuntime is the walk-every-script reference for Runtime: every
// script's scan is an ordinary wheel entry that runs on every tick and
// decides for itself, from the mailbox version, whether to diff. The
// on-mark runtime must notify exactly what this one does, in the same
// order.
type refRuntime struct {
	svc     *webmail.Service
	wheel   *simtime.TriggerWheel
	sink    Notifier
	scripts map[string]*refScript
}

type refScript struct {
	account     string
	opts        Options
	stopScan    func()
	stopBeat    func()
	lastSnap    webmail.Snapshot
	lastVersion uint64
	scanCount   int
	quotaSent   bool
}

const refQuotaSender = "apps-script-notifications@platform.example"

func (r *refRuntime) Install(account string, opts Options) error {
	snap, err := r.svc.Snapshot(account)
	if err != nil {
		return err
	}
	if old, ok := r.scripts[account]; ok {
		old.stopScan()
		old.stopBeat()
	}
	sc := &refScript{account: account, opts: opts.withDefaults(), lastSnap: snap}
	sc.stopScan = r.wheel.Every(sc.opts.ScanInterval, "ref-scan", func(now time.Time) { r.scan(sc, now) })
	sc.stopBeat = r.wheel.Every(sc.opts.HeartbeatInterval, "ref-heartbeat", func(now time.Time) {
		r.sink.Notify(Notification{Time: now, Account: sc.account, Kind: NoteHeartbeat})
	})
	r.scripts[account] = sc
	return nil
}

func (r *refRuntime) scan(sc *refScript, now time.Time) {
	pending := sc.opts.QuotaScans > 0 && !sc.quotaSent
	version := r.svc.Version(sc.account)
	if version == sc.lastVersion && !pending {
		return
	}
	snap, err := r.svc.Snapshot(sc.account)
	if err != nil {
		return
	}
	reportChanges(r.sink, sc.account, sc.lastSnap, snap, now)
	sc.lastSnap = snap
	sc.lastVersion = version
	sc.scanCount++
	if pending && sc.scanCount >= sc.opts.QuotaScans {
		sc.quotaSent = true
		deliverQuotaNotice(r.svc, r.sink, refQuotaSender, sc.account, now)
	}
}

// scripter is what the activity script drives: Runtime or refRuntime.
type scripter interface {
	Install(account string, opts Options) error
}

// activityOp is one step of the seeded activity script.
type activityOp struct {
	at      time.Duration
	kind    string
	account int
	arg     int
}

const (
	refAccounts = 6
	refWindow   = 3 * 24 * time.Hour
)

// refOptions is every install's configuration in the activity script:
// a heartbeat short enough to fire between reinstalls.
func refOptions(quota int) Options {
	return Options{HeartbeatInterval: 6 * time.Hour, QuotaScans: quota}
}

func refAddress(i int) string { return fmt.Sprintf("h%d@honeymail.example", i) }

// activityScript draws a seeded mix of attacker actions, inbound mail,
// mailbox changes that bump no version (seeding, deleting), and script
// installs and reinstalls (some with quotas). A third of the instants
// sit on the 10-minute scan lattice, so actions also land on the very
// instant a scan tick fires. Account 0 gets no script until activity
// has moved its mailbox version, and then mail appears without a
// version bump: only a scan triggered by the install-time version sees
// it.
func activityScript(seed int64) []activityOp {
	rng := rand.New(rand.NewSource(seed))
	kinds := []string{
		"read", "read", "read", "read", "star", "star", "send", "send", "draft",
		"inbound", "inbound", "seed", "delete", "delete", "install", "quota",
	}
	ops := []activityOp{
		{at: 25 * time.Minute, kind: "read", account: 0, arg: 2},
		{at: 4 * time.Hour, kind: "install", account: 0},
		{at: 4*time.Hour + time.Minute, kind: "seed", account: 0},
	}
	for i := 0; i < 400; i++ {
		at := time.Duration(rng.Int63n(int64(refWindow/time.Minute))) * time.Minute
		if rng.Intn(3) == 0 {
			at = at.Truncate(10 * time.Minute)
		}
		ops = append(ops, activityOp{at: at, kind: kinds[rng.Intn(len(kinds))],
			account: rng.Intn(refAccounts), arg: 1 + rng.Intn(12)})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	return ops
}

// runActivity builds a fresh platform with scripts on every account
// but the first, plays the activity script on its scheduler and
// returns every notification in delivery order.
func runActivity(t *testing.T, ops []activityOp, build func(*webmail.Service, *simtime.Scheduler, Notifier) scripter) []Notification {
	t.Helper()
	clock := simtime.NewClock(epoch)
	sched := simtime.NewScheduler(clock)
	svc := webmail.NewService(webmail.Config{Clock: clock})
	jar := netsim.NewCookieJar()
	rec := &recorder{}
	rt := build(svc, sched, rec)
	sessions := make([]*webmail.Session, refAccounts)
	for i := 0; i < refAccounts; i++ {
		addr := refAddress(i)
		if err := svc.CreateAccount(addr, "pw", "Honey"); err != nil {
			t.Fatal(err)
		}
		for m := 0; m < 5; m++ {
			svc.Seed(addr, webmail.FolderInbox, "boss@corp.example", addr, fmt.Sprintf("memo %d", m), "numbers", epoch.Add(-time.Hour))
		}
		se, err := svc.Login(addr, "pw", jar.Issue(), netsim.Endpoint{UserAgent: "Mozilla/5.0"})
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = se
		if i > 0 {
			if err := rt.Install(addr, refOptions(0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, op := range ops {
		op := op
		sched.At(epoch.Add(op.at), "activity", func(time.Time) {
			addr, se := refAddress(op.account), sessions[op.account]
			id := webmail.MessageID(op.arg)
			switch op.kind {
			case "read":
				se.Read(id)
			case "star":
				se.Star(id)
			case "send":
				se.Send("fence@elsewhere.example", "fwd", "loot")
			case "draft":
				se.CreateDraft("mark@elsewhere.example", "pay", fmt.Sprintf("send %d BTC", op.arg))
			case "inbound":
				svc.DeliverInbound(addr, "forum@board.example", "welcome", "confirm your registration")
			case "seed":
				svc.Seed(addr, webmail.FolderSent, addr, "old@friend.example", "catch up", "hi", epoch)
			case "delete":
				se.Delete(id)
			case "install":
				rt.Install(addr, refOptions(0))
			case "quota":
				rt.Install(addr, refOptions(1+op.arg%5))
			}
		})
	}
	sched.RunFor(refWindow)
	return rec.notes
}

func TestScanMatchesWalkEveryScriptReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		ops := activityScript(seed)
		got := runActivity(t, ops, func(svc *webmail.Service, sched *simtime.Scheduler, sink Notifier) scripter {
			return NewRuntime(svc, simtime.NewTriggerWheel(sched), sink)
		})
		want := runActivity(t, ops, func(svc *webmail.Service, sched *simtime.Scheduler, sink Notifier) scripter {
			return &refRuntime{svc: svc, wheel: simtime.NewTriggerWheel(sched), sink: sink, scripts: map[string]*refScript{}}
		})
		kinds := map[NotificationKind]int{}
		for _, n := range want {
			kinds[n.Kind]++
		}
		for _, k := range []NotificationKind{NoteRead, NoteSent, NoteStarred, NoteDraft, NoteHeartbeat, NoteQuota} {
			if kinds[k] == 0 {
				t.Fatalf("seed %d: the script produced no %v notification; it exercises too little", seed, k)
			}
		}
		n := len(got)
		if len(want) < n {
			n = len(want)
		}
		for i := 0; i < n; i++ {
			if got[i] != want[i] {
				t.Fatalf("seed %d: notification %d is %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d notifications, reference %d", seed, len(got), len(want))
		}
	}
}
