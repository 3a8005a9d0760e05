// Package appscript reimplements the instrumentation layer the paper
// builds with Google Apps Script (§3.1): per-account scripts, hidden
// inside an innocuous spreadsheet, that wake on time-based triggers,
// diff the mailbox, and report activity by sending notifications to a
// dedicated collector account.
//
// Faithful behaviours:
//
//   - A scan trigger fires every 10 minutes and reports newly read,
//     sent, and starred emails, plus full copies of created drafts.
//   - A heartbeat notification is sent once a day so the researchers
//     can tell a quiet account from a blocked one.
//   - Scripts keep running after hijackers change the account password
//     and even after Google suspends the account (§4.2) — triggers are
//     server-side, not session-bound.
//   - Attackers never find the scripts. The paper hid each one in a
//     spreadsheet and reports no discovery, so the deletion risk it
//     names in §5 "Limitations" is not modelled.
//   - Heavy scripts draw quota notices ("using too much computer
//     time") delivered INTO the account inbox, which real attackers
//     read during the study (§4.7).
package appscript

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/simtime"
	"repro/internal/webmail"
)

// NotificationKind labels what a script observed.
type NotificationKind int

const (
	NoteRead NotificationKind = iota
	NoteSent
	NoteStarred
	NoteDraft
	NoteHeartbeat
	NoteQuota
)

// String returns the label used in collector storage.
func (k NotificationKind) String() string {
	switch k {
	case NoteRead:
		return "read"
	case NoteSent:
		return "sent"
	case NoteStarred:
		return "starred"
	case NoteDraft:
		return "draft"
	case NoteHeartbeat:
		return "heartbeat"
	case NoteQuota:
		return "quota"
	default:
		return fmt.Sprintf("note(%d)", int(k))
	}
}

// Notification is one report from a honey account's script.
type Notification struct {
	Time    time.Time
	Account string
	Kind    NotificationKind
	Message webmail.MessageID // 0 for heartbeat/quota
	Body    string            // draft copy for NoteDraft
}

// Notifier receives script notifications — the paper's "dedicated
// webmail account [used] as a notifications store". The honeynet's
// per-shard stream sink implements it and feeds the notifications
// straight to the shard's classifier; nothing keeps a log of them.
type Notifier interface {
	Notify(n Notification)
}

// Options configures one installed script.
type Options struct {
	// ScanInterval is the mailbox diff cadence; the paper scans every
	// 10 minutes. Zero selects 10 minutes.
	ScanInterval time.Duration
	// HeartbeatInterval is the liveness cadence; the paper sends one a
	// day. Zero selects 24 hours.
	HeartbeatInterval time.Duration
	// QuotaScans, when positive, delivers a quota notice into the
	// account inbox after this many scans have run. The paper's two
	// quota notices arrived because the scripts used "too much
	// computer time".
	QuotaScans int
}

func (o Options) withDefaults() Options {
	if o.ScanInterval <= 0 {
		o.ScanInterval = 10 * time.Minute
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 24 * time.Hour
	}
	return o
}

// script is one installed instance.
type script struct {
	account string
	opts    Options
	// mark arms the scan trigger. webmail sets it on every mailbox
	// change, and a script still counting toward its quota notice sets
	// it on every scan; an unmarked script is not visited at all.
	mark *simtime.Mark

	stopScan  func()
	stopBeat  func()
	lastSnap  webmail.Snapshot
	scanCount int
	quotaSent bool
}

// quotaPending reports whether the script still counts scans toward a
// quota notice. Callers hold the runtime lock.
func (sc *script) quotaPending() bool { return sc.opts.QuotaScans > 0 && !sc.quotaSent }

// Runtime owns all installed scripts on a platform.
type Runtime struct {
	mu      sync.Mutex
	svc     *webmail.Service
	wheel   *simtime.TriggerWheel
	sink    Notifier
	scripts map[string]*script

	quotaSender string // From: address on quota notices
}

// NewRuntime wires the script engine to a platform and the trigger
// wheel its scripts run on. Notifications go to sink. Batching the
// triggers on a wheel means every script installed on the same cadence
// shares one scheduler event per tick instead of owning its own, so a
// fleet of N accounts costs O(1) heap operations per scan tick, not
// O(N). The honeynet passes each shard's wheel, which the shard's
// scraper shares.
func NewRuntime(svc *webmail.Service, wheel *simtime.TriggerWheel, sink Notifier) *Runtime {
	if svc == nil || wheel == nil || sink == nil {
		panic("appscript: NewRuntime requires service, trigger wheel and notifier")
	}
	return &Runtime{
		svc:         svc,
		wheel:       wheel,
		sink:        sink,
		scripts:     make(map[string]*script),
		quotaSender: "apps-script-notifications@platform.example",
	}
}

// Install attaches a script to an account and starts its triggers.
// Installing over an existing script replaces it.
//
// The scan trigger is an on-mark wheel entry whose mark the account
// sets on every mailbox change, so a tick scans only the mailboxes
// that changed since their last scan, plus scripts still counting
// toward a quota notice. A script also starts marked when its mailbox
// has changed since the account was created (a non-zero version):
// its first tick then diffs against the install-time snapshot.
func (r *Runtime) Install(account string, opts Options) error {
	snap, err := r.svc.Snapshot(account)
	if err != nil {
		return fmt.Errorf("appscript: install on %s: %w", account, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.scripts[account]; ok {
		old.stopScan()
		old.stopBeat()
	}
	sc := &script{account: account, opts: opts.withDefaults(), lastSnap: snap}
	sc.mark, sc.stopScan = r.wheel.OnMark(sc.opts.ScanInterval, "appscript-scan", func(now time.Time) {
		r.scan(sc, now)
	})
	sc.stopBeat = r.wheel.Every(sc.opts.HeartbeatInterval, "appscript-heartbeat", func(now time.Time) {
		r.heartbeat(sc, now)
	})
	version, err := r.svc.AttachMark(account, sc.mark)
	if err != nil {
		sc.stopScan()
		sc.stopBeat()
		return fmt.Errorf("appscript: install on %s: %w", account, err)
	}
	if version != 0 || sc.quotaPending() {
		sc.mark.Set()
	}
	r.scripts[account] = sc
	return nil
}

// Installed reports whether an account still has a live script.
func (r *Runtime) Installed(account string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.scripts[account]
	return ok
}

// scan diffs the mailbox against the previous snapshot and reports
// changes, mirroring the paper's 10-minute scan function. It runs only
// on ticks where the script is marked (see Install), so months of idle
// ticks cost a quiet account nothing.
func (r *Runtime) scan(sc *script, now time.Time) {
	r.mu.Lock()
	prev := sc.lastSnap
	r.mu.Unlock()

	snap, err := r.svc.Snapshot(sc.account)
	if err != nil {
		return // account deleted from platform; nothing to report
	}

	reportChanges(r.sink, sc.account, prev, snap, now)

	r.mu.Lock()
	sc.lastSnap = snap
	sc.scanCount++
	needQuota := sc.quotaPending() && sc.scanCount >= sc.opts.QuotaScans
	if needQuota {
		sc.quotaSent = true
	}
	pending := sc.quotaPending()
	r.mu.Unlock()

	if pending {
		// Counting toward the quota notice takes a scan on every tick,
		// changed mailbox or not.
		sc.mark.Set()
	}
	if needQuota {
		deliverQuotaNotice(r.svc, r.sink, r.quotaSender, sc.account, now)
	}
}

// deliverQuotaNotice puts the "too much computer time" notice into the
// account's inbox and reports it. The notice lands in the monitored
// inbox itself, where attackers can (and did) read it (§4.7).
func deliverQuotaNotice(svc *webmail.Service, sink Notifier, from, account string, now time.Time) {
	_, _ = svc.DeliverInbound(account, from,
		"Apps Script notice: excessive computer time",
		"A script attached to this account is using too much computer time and has been throttled.")
	sink.Notify(Notification{Time: now, Account: account, Kind: NoteQuota})
}

// heartbeat emits the daily liveness signal.
func (r *Runtime) heartbeat(sc *script, now time.Time) {
	// A suspended account's scripts still run in the paper's
	// observations, so the heartbeat keeps flowing; the monitor learns
	// about suspension from scrape failures instead.
	r.sink.Notify(Notification{Time: now, Account: sc.account, Kind: NoteHeartbeat})
}

// reportChanges notifies sink of what one scan found: messages newly
// read, starred or sent since prev, and every draft created since
// prev, with its body.
func reportChanges(sink Notifier, account string, prev, cur webmail.Snapshot, now time.Time) {
	notify := func(kind NotificationKind, id webmail.MessageID, body string) {
		sink.Notify(Notification{Time: now, Account: account, Kind: kind, Message: id, Body: body})
	}
	diffIDs(prev.Read, cur.Read, func(id webmail.MessageID) { notify(NoteRead, id, "") })
	diffIDs(prev.Starred, cur.Starred, func(id webmail.MessageID) { notify(NoteStarred, id, "") })
	diffIDs(prev.Sent, cur.Sent, func(id webmail.MessageID) { notify(NoteSent, id, "") })
	if len(cur.Drafts) > 0 {
		draftIDs := make([]webmail.MessageID, 0, len(cur.Drafts))
		for id := range cur.Drafts {
			draftIDs = append(draftIDs, id)
		}
		slices.Sort(draftIDs)
		for _, id := range draftIDs {
			if _, ok := prev.Drafts[id]; !ok {
				notify(NoteDraft, id, cur.Drafts[id])
			}
		}
	}
}

// diffIDs calls emit for each ID present in cur but not in prev. Both
// slices come from webmail.Snapshot, which emits IDs in ascending
// order, so a single linear merge replaces the per-scan set — a scan
// of an unchanged mailbox allocates nothing here.
func diffIDs(prev, cur []webmail.MessageID, emit func(webmail.MessageID)) {
	i := 0
	for _, id := range cur {
		for i < len(prev) && prev[i] < id {
			i++
		}
		if i < len(prev) && prev[i] == id {
			continue
		}
		emit(id)
	}
}
