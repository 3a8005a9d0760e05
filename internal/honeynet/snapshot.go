package honeynet

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/outlets"
	"repro/internal/snapshot"
	"repro/internal/webmail"
)

// Snapshot/resume: the experiment freezes at its post-setup boundary
// — accounts created, mailboxes seeded, scripts installed, scrapers
// armed, no simulated event fired — into a snapshot.State that a new
// process (or a forked scenario variant) resumes from. The boundary
// is the one point where every pending scheduler event is a periodic
// trigger the engine knows how to re-arm, so the snapshot stores the
// closure-free state (accounts, plan, stream positions) plus
// verifiable descriptors of the scheduler/wheel/cursor state, and
// Resume replays the instrumentation sequence and checks the rebuilt
// descriptors match — erroring loudly instead of diverging silently.
// Determinism guarantee #5 (see ARCHITECTURE.md): save → load →
// run-to-deadline is byte-identical to the uninterrupted run.

// fingerprint-mixing via splitmix64 on successive field values.
type fpHash uint64

func (h *fpHash) mix(v uint64) {
	x := uint64(*h) ^ v
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	*h = fpHash(x ^ (x >> 31))
}

func (h *fpHash) mixString(s string) {
	f := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		f ^= uint64(s[i])
		f *= 1099511628211
	}
	h.mix(f)
	h.mix(uint64(len(s)))
}

// Setup layouts: how the setup phase derives its randomness. The
// value is stored in snapshots and mixed into SetupFingerprint, so a
// snapshot written under one derivation can never silently resume
// under the other — the same SetupSeed produces different accounts in
// the two layouts.
const (
	// SetupLayoutLegacy (SetupSeed == 0): setup draws interleave
	// serially on the experiment root stream — the seed deployment's
	// byte-pinned behaviour.
	SetupLayoutLegacy = 1
	// SetupLayoutParallel (SetupSeed != 0): every account draws from
	// its own substream of the setup root, order-free, so setup fans
	// out over workers (determinism contract #6).
	SetupLayoutParallel = 2
)

// setupLayout returns the layout a config selects.
func (c Config) setupLayout() int {
	if c.SetupSeed != 0 {
		return SetupLayoutParallel
	}
	return SetupLayoutLegacy
}

// SetupFingerprint hashes exactly the configuration fields the setup
// phase's output depends on: the seed driving the setup streams and
// the stream-derivation layout, the number of accounts (personas and
// passwords are drawn per account in plan order, independent of the
// block structure), the leak date (seeded message dates are relative
// to it), the mailbox size, and the persona locale. Two configs with
// equal fingerprints produce identical post-setup state, whatever
// their plans, outlet catalogues, attacker calibrations, cadences or
// shard counts — which is what lets the scenario matrix fork many
// variants from one snapshot, and what Resume checks before
// accepting one.
func SetupFingerprint(cfg Config) uint64 {
	cfg = cfg.withDefaults()
	var h fpHash
	h.mix(uint64(cfg.setupSeed()))
	h.mix(uint64(cfg.setupLayout()))
	h.mix(uint64(PlanAccounts(expandPlan(cfg.Plan, cfg.ScaleFactor))))
	h.mix(uint64(cfg.Start.UnixNano()))
	h.mix(uint64(cfg.MailboxSize))
	locale := corpus.DefaultLocale()
	if cfg.Locale != nil {
		locale = *cfg.Locale
	}
	h.mixString(locale.Name)
	h.mixString(locale.Domain)
	h.mix(uint64(len(locale.First)))
	for _, s := range locale.First {
		h.mixString(s)
	}
	h.mix(uint64(len(locale.Last)))
	for _, s := range locale.Last {
		h.mixString(s)
	}
	return uint64(h)
}

// Snapshot freezes the experiment into its serializable post-setup
// state. It must be called after Setup and before Leak, while no
// simulated event has fired — the only boundary at which every
// pending event is re-armable (past it, attacker and outlet closures
// are in flight and cannot cross a process boundary). The returned
// State holds every account in memory; fleet-scale checkpoints should
// use WriteSnapshot, which streams accounts one at a time.
func (e *Experiment) Snapshot() (*snapshot.State, error) {
	st, err := e.snapshotMeta()
	if err != nil {
		return nil, err
	}
	for _, a := range e.assignments { // plan order: the canonical account order
		acct, err := e.exportAccount(a.Account)
		if err != nil {
			return nil, err
		}
		st.Accounts = append(st.Accounts, acct)
	}
	return st, nil
}

// WriteSnapshot streams the post-setup snapshot to w, exporting and
// encoding one account at a time — checkpoint memory stays O(account
// block) however many accounts the plan holds. The same boundary
// rules as Snapshot apply.
func (e *Experiment) WriteSnapshot(w io.Writer) error {
	st, err := e.snapshotMeta()
	if err != nil {
		return err
	}
	enc, err := snapshot.NewEncoder(w, st, len(e.assignments))
	if err != nil {
		return err
	}
	for _, a := range e.assignments {
		acct, err := e.exportAccount(a.Account)
		if err != nil {
			return err
		}
		if err := enc.WriteAccount(&acct); err != nil {
			return err
		}
	}
	return enc.Close()
}

// WriteSnapshotFile streams the snapshot to a file (0644).
func (e *Experiment) WriteSnapshotFile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("honeynet: checkpoint %s: %w", path, err)
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	werr := e.WriteSnapshot(bw)
	if werr == nil {
		werr = bw.Flush()
	}
	if cerr := f.Close(); werr == nil && cerr != nil {
		werr = fmt.Errorf("honeynet: checkpoint %s: %w", path, cerr)
	}
	return werr
}

// exportAccount reads one account's snapshot record from its shard's
// platform.
func (e *Experiment) exportAccount(account string) (snapshot.Account, error) {
	acct, err := e.blockOf[account].shard.svc.ExportAccount(account)
	if err != nil {
		return snapshot.Account{}, fmt.Errorf("honeynet: snapshot %s: %w", account, err)
	}
	return acct, nil
}

// snapshotMeta builds the non-account sections of the snapshot after
// checking the boundary invariants.
func (e *Experiment) snapshotMeta() (*snapshot.State, error) {
	if !e.setupDone {
		return nil, fmt.Errorf("honeynet: Snapshot before Setup (nothing to freeze)")
	}
	if e.leaked {
		return nil, fmt.Errorf("honeynet: Snapshot after Leak; snapshots freeze the post-setup boundary")
	}
	if fired := e.set.Fired(); fired != 0 {
		return nil, fmt.Errorf("honeynet: Snapshot after %d events ran; snapshots freeze the post-setup boundary", fired)
	}
	cfg := e.cfg
	st := &snapshot.State{
		Config: snapshot.Config{
			Seed:             cfg.Seed,
			SetupSeed:        cfg.SetupSeed,
			SetupLayout:      cfg.setupLayout(),
			Fingerprint:      SetupFingerprint(cfg),
			StartNS:          cfg.Start.UnixNano(),
			DurationNS:       int64(cfg.Duration),
			MailboxSize:      cfg.MailboxSize,
			ScanIntervalNS:   int64(cfg.ScanInterval),
			ScrapeIntervalNS: int64(cfg.ScrapeInterval),
			Shards:           len(e.shards),
			Scale:            cfg.ScaleFactor,

			DisableCaseStudies: cfg.DisableCaseStudies,

			LoginRisk: snapshot.LoginRisk{
				BlockTor:     cfg.LoginRisk.BlockTor,
				BlockProxies: cfg.LoginRisk.BlockProxies,
			},

			CustomSites:       !sitesAreDefault(cfg.Sites),
			CustomPopulations: cfg.Populations != nil,
			CustomLocale:      cfg.Locale != nil,

			DefenderCadenceNS: int64(cfg.DefenderCadence),
			C3BucketBits:      cfg.C3BucketBits,
			C3Variants:        cfg.C3Variants,
		},
		Root:  snapshot.Stream{Seed: cfg.Seed, Pos: e.src.Pos()},
		Setup: snapshot.Stream{Seed: cfg.setupSeed(), Pos: e.setupPos},
	}
	for _, g := range cfg.Plan {
		st.Plan = append(st.Plan, snapshot.Block{
			ID: g.ID, Count: g.Count,
			Channel: string(g.Channel), Hint: string(g.Hint), Label: g.Label,
		})
	}
	for _, sh := range e.shards {
		st.Shards = append(st.Shards, sh.descriptor())
	}
	st.Cursors = e.cursorStates()
	st.Defender = e.defenderCursors()
	return st, nil
}

// descriptor records the shard's scheduler and trigger-wheel state —
// what a snapshot stores and what Resume checks the re-armed shard
// against.
func (sh *shard) descriptor() snapshot.Shard {
	d := snapshot.Shard{
		NowNS:   sh.clock.Now().UnixNano(),
		Seq:     sh.sched.Seq(),
		Fired:   sh.sched.Fired(),
		Pending: sh.sched.Len(),
	}
	for _, c := range sh.wheel.Chains() {
		d.Chains = append(d.Chains, snapshot.Chain{IntervalNS: c.IntervalNS, PhaseNS: c.PhaseNS, Entries: c.Entries})
	}
	return d
}

// defenderCursors freezes the defender's detection state. At the
// post-setup boundary no credential has leaked yet, so every watched
// account carries a zero cursor — what matters is that the watch
// list itself (defender on, and over which accounts) round-trips, so
// a resumed experiment re-arms the identical detection loop.
func (e *Experiment) defenderCursors() []snapshot.Cursor {
	if !e.DefenderEnabled() {
		return nil
	}
	out := make([]snapshot.Cursor, 0, len(e.assignments))
	for _, a := range e.assignments {
		out = append(out, snapshot.Cursor{Account: a.Account})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Account < out[j].Account })
	return out
}

// cursorStates merges every shard monitor's scrape cursors into one
// account-sorted list.
func (e *Experiment) cursorStates() []snapshot.Cursor {
	var out []snapshot.Cursor
	for _, sh := range e.shards {
		for account, v := range sh.mon.Cursors() {
			out = append(out, snapshot.Cursor{Account: account, LastSeen: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Account < out[j].Account })
	return out
}

// sitesAreDefault reports whether the outlet catalogue is exactly the
// paper's default set (by value, not identity — withDefaults hands
// every experiment a fresh slice).
func sitesAreDefault(sites []*outlets.Site) bool {
	def := outlets.DefaultSites()
	if len(sites) != len(def) {
		return false
	}
	for i := range sites {
		if !reflect.DeepEqual(*sites[i], *def[i]) {
			return false
		}
	}
	return true
}

// ConfigFromSnapshot rebuilds the runnable core configuration a
// snapshot records. Callers may override the post-fork fields (Seed,
// Duration, Shards, defender knobs) before passing the result to
// ResumeWith; setup-relevant fields are pinned by the fingerprint. It
// refuses snapshots whose configuration depended on custom outlet
// catalogues, attacker populations or locales — those are code-backed
// structures the snapshot cannot carry, so the caller must rebuild
// that config and pass it to ResumeWith (the scenario layer does).
func ConfigFromSnapshot(st *snapshot.State) (Config, error) {
	if st.Config.CustomSites || st.Config.CustomPopulations || st.Config.CustomLocale {
		return Config{}, fmt.Errorf("honeynet: snapshot was taken with a custom outlet catalogue, attacker calibration or locale; rebuild that config and pass it to ResumeWith (the scenario matrix's warm starts do)")
	}
	cfg := Config{
		Seed:               st.Config.Seed,
		SetupSeed:          st.Config.SetupSeed,
		Start:              time.Unix(0, st.Config.StartNS).UTC(),
		Duration:           time.Duration(st.Config.DurationNS),
		MailboxSize:        st.Config.MailboxSize,
		ScanInterval:       time.Duration(st.Config.ScanIntervalNS),
		ScrapeInterval:     time.Duration(st.Config.ScrapeIntervalNS),
		Shards:             st.Config.Shards,
		ScaleFactor:        st.Config.Scale,
		DisableCaseStudies: st.Config.DisableCaseStudies,
		LoginRisk: webmail.LoginRiskConfig{
			BlockTor:     st.Config.LoginRisk.BlockTor,
			BlockProxies: st.Config.LoginRisk.BlockProxies,
		},
		DefenderCadence: time.Duration(st.Config.DefenderCadenceNS),
		C3BucketBits:    st.Config.C3BucketBits,
		C3Variants:      st.Config.C3Variants,
	}
	for _, b := range st.Plan {
		cfg.Plan = append(cfg.Plan, GroupSpec{
			ID: b.ID, Count: b.Count,
			Channel: analysis.Outlet(b.Channel), Hint: analysis.Hint(b.Hint), Label: b.Label,
		})
	}
	if err := ValidatePlan(cfg.Plan); err != nil {
		return Config{}, fmt.Errorf("honeynet: snapshot plan: %w", err)
	}
	return cfg, nil
}

// ResumeWith reconstructs an experiment from a snapshot plus an
// explicit configuration (the scenario warm-start path: each variant
// passes its own compiled config, sharing the snapshot's setup). The
// config's setup-relevant fields must fingerprint-match the snapshot;
// everything post-fork — Seed, Duration, shard count, outlet
// catalogue, attacker populations, defender knobs — may differ
// freely, which is exactly how one shared setup forks into divergent
// scenario variants or longer-horizon continuation runs.
func ResumeWith(st *snapshot.State, cfg Config) (*Experiment, error) {
	cfg = cfg.withDefaults()
	if got, want := SetupFingerprint(cfg), st.Config.Fingerprint; got != want {
		return nil, fmt.Errorf("honeynet: config fingerprint %016x does not match snapshot %016x: the snapshot's setup (seed, accounts, leak date, mailbox size, locale) differs from this config's", got, want)
	}
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.restoreSetup(st); err != nil {
		return nil, err
	}
	return e, nil
}

// restoreSetup replays the non-generative part of Setup from snapshot
// data: accounts are restored instead of drawn, but the
// scheduler-visible instrumentation runs through the exact code path
// Setup uses, in the exact order, so the re-armed trigger state is
// identical. It finishes by verifying the rebuilt observable state
// against the snapshot's descriptors.
func (e *Experiment) restoreSetup(st *snapshot.State) error {
	if e.setupDone {
		return fmt.Errorf("honeynet: restore into an experiment that already ran Setup")
	}
	if n := PlanAccounts(e.plan); len(st.Accounts) != n {
		return fmt.Errorf("honeynet: snapshot holds %d accounts; plan needs %d", len(st.Accounts), n)
	}
	if st.Root.Seed != e.cfg.Seed && st.Root.Pos != 0 {
		// Position N of one stream means nothing on another stream's
		// lattice. Only the legacy layout advances the root stream
		// during setup, and its fingerprint pins the seed, so this is
		// a corrupted snapshot, not a user error.
		return fmt.Errorf("honeynet: snapshot root stream (seed %d, pos %d) is inconsistent with config seed %d", st.Root.Seed, st.Root.Pos, e.cfg.Seed)
	}
	idx := 0
	for _, b := range e.blocks {
		b.start = idx
		for i := 0; i < b.spec.Count; i++ {
			acct := &st.Accounts[idx]
			idx++
			if err := e.loadAccount(b, acct); err != nil {
				return err
			}
			e.register(b, acct.Address, acct.Password, handleOf(acct.Address))
		}
		b.end = idx
	}
	for _, sh := range e.shards {
		sh.mon.Start(e.cfg.ScrapeInterval)
	}
	e.src.SkipTo(st.Root.Pos)
	e.setupPos = st.Setup.Pos
	e.setupDone = true
	return e.verifyRestored(st)
}

// verifyRestored checks the re-armed runtime state against the
// snapshot's descriptors: monitor cursors always; scheduler and
// trigger-wheel state whenever the resumed experiment re-arms the
// same layout the snapshot recorded — same shard count, same
// plan/scale AND same scan/scrape cadences. A fork with a different
// plan or shard count redistributes accounts across shards, and one
// with different cadences arms different (interval, phase) chains,
// so their per-shard trigger state legitimately differs; equivalence
// there is covered by the shard-count/plan determinism contracts and
// TestSnapshotInvariance's cross-config cases, not this check.
func (e *Experiment) verifyRestored(st *snapshot.State) error {
	cursors := e.cursorStates()
	if len(cursors) != len(st.Cursors) {
		return fmt.Errorf("honeynet: snapshot drift: resumed monitor tracks %d accounts, snapshot recorded %d", len(cursors), len(st.Cursors))
	}
	for i, c := range cursors {
		if c != st.Cursors[i] {
			return fmt.Errorf("honeynet: snapshot drift: scrape cursor %d is %+v, snapshot recorded %+v", i, c, st.Cursors[i])
		}
	}
	// Defender cursors are checked only when the resumed run arms the
	// same defender the snapshot recorded; a fork that toggles the
	// defender (a post-fork knob) legitimately differs here.
	if int64(e.cfg.DefenderCadence) == st.Config.DefenderCadenceNS {
		dcursors := e.defenderCursors()
		if len(dcursors) != len(st.Defender) {
			return fmt.Errorf("honeynet: snapshot drift: defender watches %d accounts, snapshot recorded %d", len(dcursors), len(st.Defender))
		}
		for i, c := range dcursors {
			if c != st.Defender[i] {
				return fmt.Errorf("honeynet: snapshot drift: defender cursor %d is %+v, snapshot recorded %+v", i, c, st.Defender[i])
			}
		}
	}
	if len(e.shards) != len(st.Shards) || e.cfg.ScaleFactor != st.Config.Scale ||
		int64(e.cfg.ScanInterval) != st.Config.ScanIntervalNS ||
		int64(e.cfg.ScrapeInterval) != st.Config.ScrapeIntervalNS ||
		!planMatches(e.cfg.Plan, st.Plan) {
		return nil
	}
	for i, sh := range e.shards {
		want := st.Shards[i]
		if got := sh.descriptor(); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("honeynet: snapshot drift: shard %d re-armed to %+v, snapshot recorded %+v", i, got, want)
		}
	}
	return nil
}

// planMatches reports whether the resumed plan equals the snapshot's.
func planMatches(plan []GroupSpec, blocks []snapshot.Block) bool {
	if len(plan) != len(blocks) {
		return false
	}
	for i, g := range plan {
		b := blocks[i]
		if g.ID != b.ID || g.Count != b.Count ||
			string(g.Channel) != b.Channel || string(g.Hint) != b.Hint || g.Label != b.Label {
			return false
		}
	}
	return true
}

// handleOf recovers the persona handle Setup records (the TF-IDF
// drop list) from a restored address, through the same derivation
// Setup's personas use so the two paths cannot drift.
func handleOf(address string) string {
	return corpus.Persona{Email: address}.Handle()
}
