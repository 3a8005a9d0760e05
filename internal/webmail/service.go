package webmail

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colstore"
	"repro/internal/netsim"
	"repro/internal/simtime"
)

// account is the server-side state of one mailbox.
type account struct {
	address  string
	password string
	owner    string // display name

	nextID MessageID
	// msgs holds message state as parallel columns (see columnar.go);
	// row i is MessageID(i+1), so iteration is ID-ascending for free.
	msgs msgStore

	// sendFrom, when set, overrides the envelope sender of outgoing
	// mail. The honeynet points it at the sinkhole domain so replies
	// and bounces never reach real parties (§3.1).
	sendFrom string

	// acc holds the activity page as parallel columns in display
	// order (First, then Cookie); strings live in the Service's
	// arena-backed table.
	acc     accessTable
	journal journalTable

	passwordChanges int

	// version increments on every mailbox state change (see
	// bumpMailboxLocked).
	version uint64
	// mark, when attached (AttachMark), is set on every version bump:
	// the Apps-Script scan is an on-mark wheel entry, so a quiet
	// mailbox is never visited. It is plain data, so an account that
	// outlives its experiment does not keep the experiment alive.
	mark *simtime.Mark

	// accessVersion increments on every change an activity-page
	// scraper could observe: a new or updated access row, a password
	// change, a suspension. The monitor's version gate compares it
	// against a per-account cursor to skip the Login+ActivityPage
	// round trip on quiet accounts — password changes and suspensions
	// bump it precisely so the gate never delays their detection.
	accessVersion atomic.Uint64

	// sends is the abuse detector's sliding window of this account's
	// outgoing mail, oldest first (see abuse.go).
	sends []sendRecord

	suspended bool
}

// bumpAccessLocked advances the scraper-visible change counter and
// stamps the changed row (-1 for row-less events: password change,
// suspension). Callers hold the Service lock.
func (a *account) bumpAccessLocked(row int32) {
	v := a.accessVersion.Add(1)
	if row >= 0 {
		a.acc.rev[row] = v
	}
}

// Config parameterises a Service.
type Config struct {
	// Clock supplies virtual time; required.
	Clock *simtime.Clock
	// Outbound receives all sent mail; defaults to DiscardOutbound.
	Outbound Outbound
	// Abuse switches the platform's abuse detection; the zero value
	// enforces the fixed thresholds in abuse.go.
	Abuse AbuseConfig
	// LoginRisk blocks suspicious logins the way Google's filters
	// would; the zero value blocks nothing. The paper had these filters
	// DISABLED on honey accounts (§3.4); the ablation bench turns them
	// on.
	LoginRisk LoginRiskConfig
}

// Service is one webmail platform: one lock over one account map and
// its string table. It is safe for concurrent use. The sharded
// experiment engine gives every shard its own Service, bound to the
// shard's clock and sinkhole, and every live-fleet shard boots one.
type Service struct {
	clock    *simtime.Clock
	outbound Outbound
	abuse    abuseDetector
	risk     LoginRiskConfig
	jar      *netsim.CookieJar

	mu       sync.Mutex
	accounts map[string]*account
	// sym is the arena-backed string table: cookies, user agents, IPs
	// and geo names across every account share it. Guarded by mu.
	sym colstore.Interner
}

// NewService creates an empty platform.
func NewService(cfg Config) *Service {
	if cfg.Clock == nil {
		panic("webmail: Config.Clock is required")
	}
	out := cfg.Outbound
	if out == nil {
		out = DiscardOutbound
	}
	return &Service{
		clock:    cfg.Clock,
		outbound: out,
		abuse:    newAbuseDetector(cfg.Abuse),
		risk:     cfg.LoginRisk,
		jar:      netsim.NewCookieJar(),
		accounts: make(map[string]*account),
	}
}

// PartitionIndex hashes an address onto one of n shards (FNV-1a). It
// is the live fleet's placement function: the router, the per-shard
// snapshot boot and the load generator's client-side routing all call
// it, so an account lands on the same shard whichever layer asks.
func PartitionIndex(address string, n int) int {
	h := uint64(1469598103934665603)
	for i := 0; i < len(address); i++ {
		h ^= uint64(address[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// acquire locks the Service and resolves an address. On success the
// caller must s.mu.Unlock(); on error the lock is already released.
func (s *Service) acquire(address string) (*account, error) {
	s.mu.Lock()
	a, ok := s.accounts[address]
	if !ok {
		s.mu.Unlock()
		return nil, ErrNoSuchAccount
	}
	return a, nil
}

// CreateAccount registers a mailbox.
func (s *Service) CreateAccount(address, password, ownerName string) error {
	return s.insert(&account{
		address:  address,
		password: password,
		owner:    ownerName,
		nextID:   1,
	})
}

// insert registers a new account, refusing an address already taken.
func (s *Service) insert(a *account) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.accounts[a.address]; ok {
		return ErrAccountExists
	}
	s.accounts[a.address] = a
	return nil
}

// SetSendFrom sets the account's outgoing envelope-sender override.
func (s *Service) SetSendFrom(address, sendFrom string) error {
	a, err := s.acquire(address)
	if err != nil {
		return err
	}
	defer s.mu.Unlock()
	a.sendFrom = sendFrom
	return nil
}

// Seed stores a message directly into a folder without journaling —
// used to populate honey mailboxes before the leak (§3.2).
func (s *Service) Seed(address string, folder Folder, from, to, subject, body string, date time.Time) (MessageID, error) {
	a, err := s.acquire(address)
	if err != nil {
		return 0, err
	}
	defer s.mu.Unlock()
	id := a.nextID
	a.nextID++
	a.msgs.append(folder, &msgText{from: from, to: to, subject: subject, body: body},
		date.UnixNano(), folder == FolderSent) // own sent mail is "read"
	return id, nil
}

// MessageText returns the stored subject and body columns of one
// message without copying: the returned strings alias the store, so
// reading N messages costs N lock round-trips and zero allocations.
// ok is false for unknown accounts and unknown ids. The analysis
// layer's lazy contents view reads seeded mail through this instead of
// keeping a per-experiment duplicate of every message.
func (s *Service) MessageText(address string, id MessageID) (subject, body string, ok bool) {
	a, err := s.acquire(address)
	if err != nil {
		return "", "", false
	}
	defer s.mu.Unlock()
	i := a.msgs.index(id)
	if i < 0 {
		return "", "", false
	}
	t := a.msgs.text[i]
	return t.subject, t.body, true
}

// EachMessageText visits messages 1..maxID of one mailbox in ID order
// under a single lock acquisition, passing the stored subject and body
// columns without copying — the bulk form of MessageText for
// corpus-wide scans (TF-IDF's "all seeded mail" document). fn runs
// under the Service lock and must not call back into the Service.
func (s *Service) EachMessageText(address string, maxID int64, fn func(id int64, subject, body string)) {
	a, err := s.acquire(address)
	if err != nil {
		return
	}
	defer s.mu.Unlock()
	n := len(a.msgs.text)
	if maxID < int64(n) {
		n = int(maxID)
	}
	for i := 0; i < n; i++ {
		t := a.msgs.text[i]
		fn(int64(i+1), t.subject, t.body)
	}
}

// Login authenticates and opens a session bound to a cookie and a
// network endpoint. A new Access row appears on the activity page for
// first-time cookies; repeat cookies update tlast and the visit count.
func (s *Service) Login(address, password, cookie string, ep netsim.Endpoint) (*Session, error) {
	a, err := s.acquire(address)
	if err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	if a.suspended {
		return nil, ErrSuspended
	}
	if a.password != password {
		return nil, ErrBadPassword
	}
	now := s.clock.Now()
	if s.risky(ep) {
		s.journalLocked(a, Event{Time: now, Kind: EventLoginBlocked, Account: address, Cookie: cookie, Detail: ep.Addr.String()})
		return nil, ErrLoginBlocked
	}
	if cookie == "" {
		cookie = s.jar.Issue()
	}
	row, seen := a.acc.lookup(cookie)
	if !seen {
		browser, device := netsim.ClassifyUserAgent(ep.UserAgent)
		row = a.acc.add(&s.sym, cookie, now.UnixNano(), ep, browser, device)
	}
	a.acc.lastNS[row] = now.UnixNano()
	a.acc.visits[row]++
	a.bumpAccessLocked(row)
	s.journalLocked(a, Event{Time: now, Kind: EventLogin, Account: address, Cookie: cookie, Detail: ep.Addr.String()})
	return &Session{svc: s, acct: a, cookie: cookie, passwordAt: a.passwordChanges}, nil
}

// risky is the Google-style suspicious-login heuristic used only by
// the ablation: it blocks the anonymised origins (Tor exits, open
// proxies) that the configured flags name.
func (s *Service) risky(ep netsim.Endpoint) bool {
	return ep.Tor && s.risk.BlockTor || ep.Proxy && s.risk.BlockProxies
}

// LoginRiskConfig models the provider's suspicious-login filters. A
// filter is on when at least one flag is set.
type LoginRiskConfig struct {
	BlockTor     bool
	BlockProxies bool
}

// Suspend blocks an account (Google's enforcement, §4.1).
func (s *Service) Suspend(address, reason string) error {
	a, err := s.acquire(address)
	if err != nil {
		return err
	}
	defer s.mu.Unlock()
	if !a.suspended {
		a.suspended = true
		a.bumpAccessLocked(-1) // scraper-visible: the next login fails
		s.journalLocked(a, Event{Time: s.clock.Now(), Kind: EventSuspend, Account: address, Detail: reason})
	}
	return nil
}

// ResetPassword is the provider-side credential rotation the C3
// defender loop triggers on a detected leak: the password changes
// without any session (unlike Session.ChangePassword, which is the
// hijacker's move), so every live session — the attacker's included —
// is invalidated at once.
func (s *Service) ResetPassword(address, newPassword string) error {
	a, err := s.acquire(address)
	if err != nil {
		return err
	}
	defer s.mu.Unlock()
	a.password = newPassword
	a.passwordChanges++
	a.bumpAccessLocked(-1) // scraper-visible: the monitor must learn the new credential
	s.journalLocked(a, Event{
		Time: s.clock.Now(), Kind: EventPasswordChange,
		Account: address, Detail: "reset",
	})
	return nil
}

// Suspended reports whether the account is blocked.
func (s *Service) Suspended(address string) bool {
	a, err := s.acquire(address)
	if err != nil {
		return false
	}
	defer s.mu.Unlock()
	return a.suspended
}

// SuspendedCount returns how many accounts the platform has blocked.
func (s *Service) SuspendedCount() int {
	n := 0
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.accounts {
		if a.suspended {
			n++
		}
	}
	return n
}

// Accounts returns all account addresses, sorted.
func (s *Service) Accounts() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.accounts))
	for addr := range s.accounts {
		out = append(out, addr)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// Journal returns a copy of the ground-truth event journal for an
// account (empty for unknown accounts).
func (s *Service) Journal(address string) []Event {
	a, err := s.acquire(address)
	if err != nil {
		return nil
	}
	defer s.mu.Unlock()
	out := make([]Event, a.journal.len())
	for i := range out {
		out[i] = a.journal.materialize(i, a.address)
	}
	return out
}

// SearchLog returns the ground-truth search queries issued against an
// account: the details of its journal's EventSearch rows, oldest
// first. The paper did NOT have this signal ("we did not have access
// to search logs", §4.6) — it exists here to validate how well the
// TF-IDF inference recovers it.
func (s *Service) SearchLog(address string) []string {
	a, err := s.acquire(address)
	if err != nil {
		return nil
	}
	defer s.mu.Unlock()
	var out []string
	for i, k := range a.journal.kind {
		if k == EventSearch {
			out = append(out, a.journal.detail[i])
		}
	}
	return out
}

// bumpMailboxLocked records a change to what Snapshot reports: it
// advances the mailbox version and sets the attached mark, if any.
// Callers hold the Service lock.
func (a *account) bumpMailboxLocked() {
	a.version++
	if a.mark != nil {
		a.mark.Set()
	}
}

// journalLocked appends an event. Callers hold the Service lock. The
// snapshot version only advances for events that change what Snapshot
// reports (reads, stars, sends, drafts) so that pollers can skip
// accounts whose mailbox is untouched — logins and searches alone do
// not force a rescan.
func (s *Service) journalLocked(a *account, e Event) {
	a.journal.append(&s.sym, e)
	switch e.Kind {
	case EventRead, EventStar, EventSend, EventDraftCreate:
		a.bumpMailboxLocked()
	}
}

// Version returns a counter that changes whenever the account's
// mailbox state does. Unknown accounts report 0.
func (s *Service) Version(address string) uint64 {
	a, err := s.acquire(address)
	if err != nil {
		return 0
	}
	defer s.mu.Unlock()
	return a.version
}

// AttachMark makes every later change to an account's mailbox (every
// Version bump) set m, replacing any mark attached before. It returns
// the mailbox version at attach time, so a watcher can tell whether
// the mailbox changed before it started watching. The Apps-Script
// runtime attaches its scan trigger's mark here.
func (s *Service) AttachMark(address string, m *simtime.Mark) (uint64, error) {
	a, err := s.acquire(address)
	if err != nil {
		return 0, err
	}
	defer s.mu.Unlock()
	a.mark = m
	return a.version, nil
}

// AccessVersion returns a counter that changes whenever anything an
// activity-page scraper could observe does: a new or updated access
// row, a password change, a suspension. Unknown accounts report 0.
func (s *Service) AccessVersion(address string) uint64 {
	a, err := s.acquire(address)
	if err != nil {
		return 0
	}
	defer s.mu.Unlock()
	return a.accessVersion.Load()
}

// VersionProbe is a lock-free handle for polling one account's
// scraper-visible change counter. The activity-page scraper's version
// gate holds one per account so that deciding "nothing changed — skip
// this account" costs a single atomic load instead of a locked lookup
// per account per tick. Accounts are never deleted, so a probe stays
// valid for the life of the service. The zero value is invalid (Valid
// reports false).
type VersionProbe struct{ a *account }

// Valid reports whether the probe is bound to an account.
func (p VersionProbe) Valid() bool { return p.a != nil }

// AccessVersion mirrors Service.AccessVersion for the probed account.
func (p VersionProbe) AccessVersion() uint64 { return p.a.accessVersion.Load() }

// Probe returns a version probe for an account.
func (s *Service) Probe(address string) (VersionProbe, error) {
	a, err := s.acquire(address)
	if err != nil {
		return VersionProbe{}, err
	}
	defer s.mu.Unlock()
	return VersionProbe{a: a}, nil
}

// Folded message counts for reporting.
type FolderCounts struct {
	Inbox, Sent, Drafts, Trash int
	Unread, Starred            int
}

// Counts summarises an account's folders.
func (s *Service) Counts(address string) (FolderCounts, error) {
	a, err := s.acquire(address)
	if err != nil {
		return FolderCounts{}, err
	}
	defer s.mu.Unlock()
	var c FolderCounts
	// Pure column scan: folder/read/starred only, text untouched.
	for i, f := range a.msgs.folder {
		switch f {
		case FolderInbox:
			c.Inbox++
		case FolderSent:
			c.Sent++
		case FolderDrafts:
			c.Drafts++
		case FolderTrash:
			c.Trash++
		}
		if !a.msgs.read[i] && f == FolderInbox {
			c.Unread++
		}
		if a.msgs.starred[i] {
			c.Starred++
		}
	}
	return c, nil
}

// DeliverInbound places a message in the account's inbox, as the MTA
// would for mail arriving from outside (forum registration
// confirmations, Apps-Script quota notices, §4.7).
func (s *Service) DeliverInbound(address, from, subject, body string) (MessageID, error) {
	a, err := s.acquire(address)
	if err != nil {
		return 0, err
	}
	defer s.mu.Unlock()
	id := a.nextID
	a.nextID++
	a.msgs.append(FolderInbox, &msgText{from: from, to: address, subject: subject, body: body},
		s.clock.Now().UnixNano(), false)
	a.bumpMailboxLocked()
	return id, nil
}

// Snapshot is the immutable view the Apps-Script scanner diffs every
// cycle: which messages are read / starred / sent / drafts.
type Snapshot struct {
	Taken   time.Time
	Read    []MessageID
	Starred []MessageID
	Sent    []MessageID
	Drafts  map[MessageID]string // draft id -> body (scripts exfiltrate draft copies)
}

// Snapshot captures the visible mailbox state. It works even on
// suspended accounts and after password changes — the paper notes the
// embedded scripts keep running in both cases (§4.2).
func (s *Service) Snapshot(address string) (Snapshot, error) {
	a, err := s.acquire(address)
	if err != nil {
		return Snapshot{}, err
	}
	defer s.mu.Unlock()
	snap := Snapshot{Taken: s.clock.Now()}
	// Rows are ID-ascending by construction — a single column scan
	// replaces the collect-then-sort the map store needed. The Drafts
	// map is only allocated when a draft actually exists (most
	// accounts never have one).
	for i, f := range a.msgs.folder {
		id := MessageID(i + 1)
		if a.msgs.read[i] && f == FolderInbox {
			snap.Read = append(snap.Read, id)
		}
		if a.msgs.starred[i] {
			snap.Starred = append(snap.Starred, id)
		}
		if f == FolderSent {
			snap.Sent = append(snap.Sent, id)
		}
		if f == FolderDrafts {
			if snap.Drafts == nil {
				snap.Drafts = make(map[MessageID]string)
			}
			snap.Drafts[id] = a.msgs.text[i].body
		}
	}
	return snap, nil
}

// ActivityPage returns the access rows for an account as its activity
// page would display them, sorted by first access. Scraping requires
// valid credentials: after a hijacker changes the password the monitor
// can no longer call this (enforced by the monitor, which logs in
// through the normal path). Rows are kept insertion-sorted, so this is
// a straight copy — no per-call sort.
func (s *Service) ActivityPage(address string) ([]Access, error) {
	a, err := s.acquire(address)
	if err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	out := make([]Access, len(a.acc.order))
	for i, row := range a.acc.order {
		out[i] = a.acc.materialize(row)
	}
	return out, nil
}

// Password returns the current password; the honeynet uses it to model
// "the password no longer matches the leaked one" after hijacks.
func (s *Service) Password(address string) (string, error) {
	a, err := s.acquire(address)
	if err != nil {
		return "", err
	}
	defer s.mu.Unlock()
	return a.password, nil
}

// rowLocked resolves a message ID to its store row or returns
// ErrNoSuchMessage.
func (a *account) rowLocked(id MessageID) (int, error) {
	i := a.msgs.index(id)
	if i < 0 {
		return 0, ErrNoSuchMessage
	}
	return i, nil
}
