// Package snapshot defines the deterministic, versioned on-disk form
// of a honeynet experiment frozen at its post-setup boundary, and the
// codec that reads and writes it.
//
// A snapshot captures everything the setup phase produced — the full
// webmail account stores (mailboxes, folders, flags), the compiled
// deployment plan, the rng stream positions, and the observable state
// of every shard's scheduler, trigger wheel and monitor cursor — as
// pure data. Pending scheduler events carry closures and cannot cross
// a process boundary, so the scheduler/wheel/cursor sections are
// stored as verifiable descriptors: honeynet.Resume re-arms the
// triggers by replaying the instrumentation sequence and then checks
// the rebuilt state against these descriptors, erroring on any drift
// instead of silently diverging. Save → load → run-to-deadline is
// byte-identical to an uninterrupted run (TestSnapshotInvariance).
//
// Format: an 8-byte magic ("hnysnap" + format version) followed by a
// stream of checksummed frames — one meta frame (config, plan,
// streams, shards, cursors, account count), the accounts in canonical
// fixed-size blocks, and a trailer carrying a rolling checksum (see
// stream.go). Fields are zigzag/uvarint-coded in fixed order and all
// varints must be minimally encoded, so every State has exactly one
// valid byte representation — Decode(Encode(s)) round-trips
// byte-for-byte, which FuzzSnapshotDecode leans on. Decoding untrusted
// bytes returns an error for any corruption or truncation; it never
// panics and never allocates more than the input length can justify.
//
// The framing exists for memory, not just integrity: Encoder and
// Decoder stream accounts one at a time, so writing or reading a
// fleet-scale checkpoint holds one account block in memory, not the
// whole fleet. Encode/Decode are convenience wrappers over them.
package snapshot

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
)

// Version is the current snapshot format version, embedded in the
// magic. Decoders reject other versions rather than guessing.
// Version 2 replaced the whole-payload v1 layout with the framed
// streaming container; version 3 added Config.SetupLayout (the setup
// stream-derivation layout, which also entered the fingerprint);
// version 4 added the C3 defender section (Config.DefenderCadenceNS,
// C3BucketBits, C3Variants and the State.Defender cursor list);
// version 5 dropped the DisableStreaming and DisableDirtyTracking
// config flags along with the engine toggles they recorded; version 6
// dropped VisibleScripts and the login-risk Enabled flag and home
// radius, settings no output could observe.
const Version = 6

// magic identifies a snapshot file: 7 fixed bytes plus the version.
var magic = [8]byte{'h', 'n', 'y', 's', 'n', 'a', 'p', Version}

// State is one experiment frozen at the post-setup boundary.
type State struct {
	Config   Config
	Plan     []Block   // the un-expanded deployment plan
	Root     Stream    // experiment root stream at the boundary
	Setup    Stream    // setup stream at its final position (diagnostic)
	Shards   []Shard   // per-shard scheduler/wheel descriptors
	Cursors  []Cursor  // monitor scrape cursors, sorted by account
	Defender []Cursor  // defender detection cursors (empty: defender off)
	Accounts []Account // full account stores, in plan order
}

// Config is the serializable core of honeynet.Config. Sites, attacker
// populations and locale pools are code-backed structures that only
// shape the post-fork phases, so they are not stored — only flagged,
// so a bare Resume on a snapshot that depended on them can refuse
// instead of silently substituting defaults.
type Config struct {
	Seed        int64
	SetupSeed   int64  // 0: setup drew from the root stream (legacy layout)
	SetupLayout int    // honeynet.SetupLayout* constant the setup ran under
	Fingerprint uint64 // hash of the setup-relevant fields; Resume must match

	StartNS          int64
	DurationNS       int64
	MailboxSize      int
	ScanIntervalNS   int64
	ScrapeIntervalNS int64
	Shards           int
	Scale            int

	DisableCaseStudies bool

	LoginRisk LoginRisk

	CustomSites       bool
	CustomPopulations bool
	CustomLocale      bool

	// C3 defender loop (v4): cadence of the detection check (0 =
	// defender disabled), k-anonymity prefix width of the per-shard
	// index fragments, and whether MIGP-style variants are indexed.
	DefenderCadenceNS int64
	C3BucketBits      int
	C3Variants        bool
}

// LoginRisk mirrors webmail.LoginRiskConfig.
type LoginRisk struct {
	BlockTor     bool
	BlockProxies bool
}

// Block is one plan entry (honeynet.GroupSpec) in neutral form.
type Block struct {
	ID      int
	Count   int
	Channel string
	Hint    string
	Label   string
}

// Stream is one rng stream position: rng.New(Seed) fast-forwarded with
// SkipTo(Pos) resumes it.
type Stream struct {
	Seed int64
	Pos  uint64
}

// Shard pins one shard scheduler's observable state.
type Shard struct {
	NowNS   int64
	Seq     uint64
	Fired   uint64
	Pending int
	Chains  []Chain
}

// Chain is one trigger-wheel bucket descriptor.
type Chain struct {
	IntervalNS int64
	PhaseNS    int64
	Entries    int
}

// Cursor is one monitor scrape cursor.
type Cursor struct {
	Account  string
	LastSeen uint64
}

// Account is one webmail account's full server-side state.
type Account struct {
	Address  string
	Password string
	Owner    string
	SendFrom string
	NextID   int64
	Messages []Message
}

// Message is one stored mail.
type Message struct {
	ID      int64
	Folder  string
	From    string
	To      string
	Subject string
	Body    string
	DateNS  int64
	Read    bool
	Starred bool
	Labels  []string
}

// sizeHint estimates the encoded size so Encode allocates its buffer
// once instead of regrowing through megabytes of appends (mailbox
// text dominates; varint field overhead is budgeted per field).
func (s *State) sizeHint() int {
	n := 256                                      // magic + config + streams + trailer
	n += 16 * (2 + len(s.Accounts)/BlockAccounts) // frame headers + checksums
	n += len(s.Plan) * 96
	for _, sh := range s.Shards {
		n += 64 + len(sh.Chains)*24
	}
	for _, c := range s.Cursors {
		n += len(c.Account) + 16
	}
	for _, c := range s.Defender {
		n += len(c.Account) + 16
	}
	for _, a := range s.Accounts {
		n += len(a.Address) + len(a.Password) + len(a.Owner) + len(a.SendFrom) + 32
		for _, m := range a.Messages {
			n += len(m.Folder) + len(m.From) + len(m.To) + len(m.Subject) + len(m.Body) + 48
			for _, l := range m.Labels {
				n += len(l) + 8
			}
		}
	}
	return n
}

// Encode serializes the state into its canonical byte form — a
// convenience wrapper that streams s through an Encoder into one
// buffer. Callers holding fleet-scale state should prefer NewEncoder
// against a file or socket and skip the intermediate buffer entirely.
func (s *State) Encode() []byte {
	var buf bytes.Buffer
	buf.Grow(s.sizeHint())
	enc, err := NewEncoder(&buf, s, len(s.Accounts))
	if err != nil {
		panic(err) // a bytes.Buffer write cannot fail
	}
	for i := range s.Accounts {
		if err := enc.WriteAccount(&s.Accounts[i]); err != nil {
			panic(err)
		}
	}
	if err := enc.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// encodeMeta writes every non-account section plus the account count
// — the meta frame's payload.
func (s *State) encodeMeta(w *writer, accounts int) {
	s.Config.encode(w)
	w.count(len(s.Plan))
	for _, b := range s.Plan {
		w.i64(int64(b.ID))
		w.i64(int64(b.Count))
		w.str(b.Channel)
		w.str(b.Hint)
		w.str(b.Label)
	}
	s.Root.encode(w)
	s.Setup.encode(w)
	w.count(len(s.Shards))
	for _, sh := range s.Shards {
		w.i64(sh.NowNS)
		w.u64(sh.Seq)
		w.u64(sh.Fired)
		w.count(sh.Pending)
		w.count(len(sh.Chains))
		for _, c := range sh.Chains {
			w.i64(c.IntervalNS)
			w.i64(c.PhaseNS)
			w.count(c.Entries)
		}
	}
	w.count(len(s.Cursors))
	for _, c := range s.Cursors {
		w.str(c.Account)
		w.u64(c.LastSeen)
	}
	w.count(len(s.Defender))
	for _, c := range s.Defender {
		w.str(c.Account)
		w.u64(c.LastSeen)
	}
	w.count(accounts)
}

// encodeAccount writes one account record into an accounts frame.
func encodeAccount(w *writer, a *Account) {
	w.str(a.Address)
	w.str(a.Password)
	w.str(a.Owner)
	w.str(a.SendFrom)
	w.i64(a.NextID)
	w.count(len(a.Messages))
	for _, m := range a.Messages {
		w.i64(m.ID)
		w.str(m.Folder)
		w.str(m.From)
		w.str(m.To)
		w.str(m.Subject)
		w.str(m.Body)
		w.i64(m.DateNS)
		w.bool(m.Read)
		w.bool(m.Starred)
		w.count(len(m.Labels))
		for _, l := range m.Labels {
			w.str(l)
		}
	}
}

func (c *Config) encode(w *writer) {
	w.i64(c.Seed)
	w.i64(c.SetupSeed)
	w.i64(int64(c.SetupLayout))
	w.u64(c.Fingerprint)
	w.i64(c.StartNS)
	w.i64(c.DurationNS)
	w.i64(int64(c.MailboxSize))
	w.i64(c.ScanIntervalNS)
	w.i64(c.ScrapeIntervalNS)
	w.i64(int64(c.Shards))
	w.i64(int64(c.Scale))
	w.bool(c.DisableCaseStudies)
	w.bool(c.LoginRisk.BlockTor)
	w.bool(c.LoginRisk.BlockProxies)
	w.bool(c.CustomSites)
	w.bool(c.CustomPopulations)
	w.bool(c.CustomLocale)
	w.i64(c.DefenderCadenceNS)
	w.i64(int64(c.C3BucketBits))
	w.bool(c.C3Variants)
}

func (s *Stream) encode(w *writer) {
	w.i64(s.Seed)
	w.u64(s.Pos)
}

// Decode parses a canonical snapshot, verifying magic, version, every
// frame checksum and the trailer. It returns a descriptive error on
// any malformed input. Callers resuming fleet-scale snapshots should
// prefer NewDecoder and stream the accounts instead of materializing
// them all here.
func Decode(data []byte) (*State, error) {
	d, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return decodeAll(d)
}

// decodeAll drains a decoder into a fully materialized State.
func decodeAll(d *Decoder) (*State, error) {
	s := d.Meta()
	for {
		var a Account
		err := d.Next(&a)
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			return nil, err
		}
		s.Accounts = append(s.Accounts, a)
	}
}

// decodeMeta parses the meta frame payload: every non-account section
// plus the declared account count.
func (s *State) decodeMeta(r *reader) (accounts int, err error) {
	if err = s.Config.decode(r); err != nil {
		return 0, err
	}
	nPlan, err := r.count("plan blocks")
	if err != nil {
		return 0, err
	}
	if nPlan > 0 {
		s.Plan = make([]Block, nPlan)
	}
	for i := range s.Plan {
		b := &s.Plan[i]
		if b.ID, err = r.intField("plan id"); err != nil {
			return 0, err
		}
		if b.Count, err = r.intField("plan count"); err != nil {
			return 0, err
		}
		if b.Channel, err = r.str("plan channel"); err != nil {
			return 0, err
		}
		if b.Hint, err = r.str("plan hint"); err != nil {
			return 0, err
		}
		if b.Label, err = r.str("plan label"); err != nil {
			return 0, err
		}
	}
	if err = s.Root.decode(r, "root stream"); err != nil {
		return 0, err
	}
	if err = s.Setup.decode(r, "setup stream"); err != nil {
		return 0, err
	}
	nShards, err := r.count("shards")
	if err != nil {
		return 0, err
	}
	if nShards > 0 {
		s.Shards = make([]Shard, nShards)
	}
	for i := range s.Shards {
		sh := &s.Shards[i]
		if sh.NowNS, err = r.i64("shard now"); err != nil {
			return 0, err
		}
		if sh.Seq, err = r.u64("shard seq"); err != nil {
			return 0, err
		}
		if sh.Fired, err = r.u64("shard fired"); err != nil {
			return 0, err
		}
		if sh.Pending, err = r.count("shard pending"); err != nil {
			return 0, err
		}
		nChains, err := r.count("shard chains")
		if err != nil {
			return 0, err
		}
		if nChains > 0 {
			sh.Chains = make([]Chain, nChains)
		}
		for j := range sh.Chains {
			c := &sh.Chains[j]
			if c.IntervalNS, err = r.i64("chain interval"); err != nil {
				return 0, err
			}
			if c.PhaseNS, err = r.i64("chain phase"); err != nil {
				return 0, err
			}
			if c.Entries, err = r.count("chain entries"); err != nil {
				return 0, err
			}
		}
	}
	nCursors, err := r.count("cursors")
	if err != nil {
		return 0, err
	}
	if nCursors > 0 {
		s.Cursors = make([]Cursor, nCursors)
	}
	for i := range s.Cursors {
		c := &s.Cursors[i]
		if c.Account, err = r.str("cursor account"); err != nil {
			return 0, err
		}
		if c.LastSeen, err = r.u64("cursor value"); err != nil {
			return 0, err
		}
	}
	nDefender, err := r.count("defender cursors")
	if err != nil {
		return 0, err
	}
	if nDefender > 0 {
		s.Defender = make([]Cursor, nDefender)
	}
	for i := range s.Defender {
		c := &s.Defender[i]
		if c.Account, err = r.str("defender account"); err != nil {
			return 0, err
		}
		if c.LastSeen, err = r.u64("defender value"); err != nil {
			return 0, err
		}
	}
	// The accounts live in their own frames, so their count cannot be
	// bounded by this frame's remaining bytes the way r.count bounds
	// in-frame collections; the per-frame reads in the Decoder bound
	// the actual allocation instead.
	nAccounts, err := r.u64("accounts")
	if err != nil {
		return 0, err
	}
	if nAccounts > maxFrameLen {
		return 0, fmt.Errorf("snapshot: account count %d exceeds limit", nAccounts)
	}
	return int(nAccounts), nil
}

// decodeAccount parses one account record from an accounts frame.
func decodeAccount(r *reader, a *Account) error {
	var err error
	if a.Address, err = r.str("account address"); err != nil {
		return err
	}
	if a.Password, err = r.str("account password"); err != nil {
		return err
	}
	if a.Owner, err = r.str("account owner"); err != nil {
		return err
	}
	if a.SendFrom, err = r.str("account send-from"); err != nil {
		return err
	}
	if a.NextID, err = r.i64("account next id"); err != nil {
		return err
	}
	nMsgs, err := r.count("messages")
	if err != nil {
		return err
	}
	if nMsgs > 0 {
		a.Messages = make([]Message, nMsgs)
	}
	for j := range a.Messages {
		m := &a.Messages[j]
		if m.ID, err = r.i64("message id"); err != nil {
			return err
		}
		if m.Folder, err = r.str("message folder"); err != nil {
			return err
		}
		if m.From, err = r.str("message from"); err != nil {
			return err
		}
		if m.To, err = r.str("message to"); err != nil {
			return err
		}
		if m.Subject, err = r.str("message subject"); err != nil {
			return err
		}
		if m.Body, err = r.str("message body"); err != nil {
			return err
		}
		if m.DateNS, err = r.i64("message date"); err != nil {
			return err
		}
		if m.Read, err = r.bool("message read flag"); err != nil {
			return err
		}
		if m.Starred, err = r.bool("message starred flag"); err != nil {
			return err
		}
		nLabels, err := r.count("labels")
		if err != nil {
			return err
		}
		if nLabels > 0 {
			m.Labels = make([]string, nLabels)
			for k := range m.Labels {
				if m.Labels[k], err = r.str("label"); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (c *Config) decode(r *reader) error {
	var err error
	if c.Seed, err = r.i64("seed"); err != nil {
		return err
	}
	if c.SetupSeed, err = r.i64("setup seed"); err != nil {
		return err
	}
	if c.SetupLayout, err = r.intField("setup layout"); err != nil {
		return err
	}
	if c.Fingerprint, err = r.u64("fingerprint"); err != nil {
		return err
	}
	if c.StartNS, err = r.i64("start"); err != nil {
		return err
	}
	if c.DurationNS, err = r.i64("duration"); err != nil {
		return err
	}
	if c.MailboxSize, err = r.intField("mailbox size"); err != nil {
		return err
	}
	if c.ScanIntervalNS, err = r.i64("scan interval"); err != nil {
		return err
	}
	if c.ScrapeIntervalNS, err = r.i64("scrape interval"); err != nil {
		return err
	}
	if c.Shards, err = r.intField("shards"); err != nil {
		return err
	}
	if c.Scale, err = r.intField("scale"); err != nil {
		return err
	}
	flags := []*bool{
		&c.DisableCaseStudies, &c.LoginRisk.BlockTor, &c.LoginRisk.BlockProxies,
		&c.CustomSites, &c.CustomPopulations, &c.CustomLocale,
	}
	for _, f := range flags {
		if *f, err = r.bool("config flag"); err != nil {
			return err
		}
	}
	if c.DefenderCadenceNS, err = r.i64("defender cadence"); err != nil {
		return err
	}
	if c.C3BucketBits, err = r.intField("c3 bucket bits"); err != nil {
		return err
	}
	if c.C3Variants, err = r.bool("c3 variants flag"); err != nil {
		return err
	}
	return nil
}

func (s *Stream) decode(r *reader, what string) error {
	var err error
	if s.Seed, err = r.i64(what + " seed"); err != nil {
		return err
	}
	s.Pos, err = r.u64(what + " position")
	return err
}

// ReadFile streams and decodes a snapshot file.
func ReadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	d, err := NewDecoder(bufio.NewReaderSize(f, readChunk))
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	s, err := decodeAll(d)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return s, nil
}
