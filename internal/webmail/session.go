package webmail

import (
	"cmp"
	"slices"
	"strings"
)

// Session is an authenticated view of one account bound to a cookie.
// A password change invalidates every session opened before it, which
// is how hijackers lock out both the legitimate owner and our
// activity-page scraper (§4.2). Every session operation takes the
// Service lock once.
type Session struct {
	svc        *Service
	acct       *account // accounts are never removed or replaced
	cookie     string
	passwordAt int // password generation at login time
}

// Account returns the mailbox address the session is bound to.
func (se *Session) Account() string { return se.acct.address }

// Cookie returns the browser cookie identifier of this session.
func (se *Session) Cookie() string { return se.cookie }

// touch revalidates the session, updates the activity row's tlast, and
// returns the account. Callers must hold se.svc.mu.
func (se *Session) touch() (*account, error) {
	a := se.acct
	if a.suspended {
		return nil, ErrSuspended
	}
	if a.passwordChanges != se.passwordAt {
		return nil, ErrSessionExpired
	}
	if row, ok := a.acc.lookup(se.cookie); ok {
		nowNS := se.svc.clock.Now().UnixNano()
		if nowNS > a.acc.lastNS[row] {
			a.acc.lastNS[row] = nowNS
			// tlast is on the activity page: a scraper can observe it.
			a.bumpAccessLocked(row)
		}
	}
	return a, nil
}

// Touch revalidates the session and refreshes its activity row's
// tlast: everything a mailbox operation does to the account on the
// way in, and nothing else. A visit that opens a page without reading
// it uses this instead of materializing a listing it drops.
func (se *Session) Touch() error {
	se.svc.mu.Lock()
	defer se.svc.mu.Unlock()
	_, err := se.touch()
	return err
}

// cmpMessage orders messages oldest first, IDs breaking ties — the
// folder listing and search-result order.
func cmpMessage(x, y Message) int {
	if c := x.Date.Compare(y.Date); c != 0 {
		return c
	}
	return cmp.Compare(x.ID, y.ID)
}

// List returns the messages of a folder, oldest first.
func (se *Session) List(folder Folder) ([]Message, error) {
	return se.ListN(folder, 0)
}

// ListN returns the newest limit messages of a folder, oldest first;
// limit <= 0 means the whole folder. This is the bounded variant the
// wire protocol's list op uses (Request.Limit), so a single response
// cannot grow with mailbox size: the newest-N rows are selected on
// the compact date column before any message text is materialized.
func (se *Session) ListN(folder Folder, limit int) ([]Message, error) {
	se.svc.mu.Lock()
	defer se.svc.mu.Unlock()
	a, err := se.touch()
	if err != nil {
		return nil, err
	}
	var idx []int
	for i, f := range a.msgs.folder {
		if f == folder {
			idx = append(idx, i)
		}
	}
	// Same (date, ID) order cmpMessage imposes on materialized
	// values; row index i carries ID i+1, so index order is ID order.
	slices.SortFunc(idx, func(x, y int) int {
		if c := cmp.Compare(a.msgs.dateNS[x], a.msgs.dateNS[y]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	if limit > 0 && len(idx) > limit {
		idx = idx[len(idx)-limit:]
	}
	out := make([]Message, len(idx))
	for j, i := range idx {
		out[j] = a.msgs.materialize(i)
	}
	return out, nil
}

// Read opens a message, marking it read and journaling the action —
// the signal the Apps-Script scan picks up (§3.1).
func (se *Session) Read(id MessageID) (Message, error) {
	se.svc.mu.Lock()
	defer se.svc.mu.Unlock()
	a, err := se.touch()
	if err != nil {
		return Message{}, err
	}
	i, err := a.rowLocked(id)
	if err != nil {
		return Message{}, err
	}
	if !a.msgs.read[i] {
		a.msgs.read[i] = true
		se.svc.journalLocked(a, Event{
			Time: se.svc.clock.Now(), Kind: EventRead,
			Account: a.address, Cookie: se.cookie, Message: id,
		})
	}
	return a.msgs.materialize(i), nil
}

// Star marks a message starred (favorited).
func (se *Session) Star(id MessageID) error {
	se.svc.mu.Lock()
	defer se.svc.mu.Unlock()
	a, err := se.touch()
	if err != nil {
		return err
	}
	i, err := a.rowLocked(id)
	if err != nil {
		return err
	}
	if !a.msgs.starred[i] {
		a.msgs.starred[i] = true
		se.svc.journalLocked(a, Event{
			Time: se.svc.clock.Now(), Kind: EventStar,
			Account: a.address, Cookie: se.cookie, Message: id,
		})
	}
	return nil
}

// Search runs a keyword query over subject and body, journals it, and
// returns matches oldest-first. Ground truth only: the paper's
// analysts could not see queries and inferred them via TF-IDF (§4.6).
func (se *Session) Search(query string) ([]Message, error) {
	se.svc.mu.Lock()
	defer se.svc.mu.Unlock()
	a, err := se.touch()
	if err != nil {
		return nil, err
	}
	q := strings.TrimSpace(query)
	se.svc.journalLocked(a, Event{
		Time: se.svc.clock.Now(), Kind: EventSearch,
		Account: a.address, Cookie: se.cookie, Detail: q,
	})
	terms := strings.Fields(strings.ToLower(q))
	var out []Message
	for i, t := range a.msgs.text {
		if a.msgs.folder[i] != FolderTrash && t.matchTerms(terms) {
			out = append(out, a.msgs.materialize(i))
		}
	}
	slices.SortFunc(out, cmpMessage)
	return out, nil
}

// CreateDraft stores a new draft and returns its ID.
func (se *Session) CreateDraft(to, subject, body string) (MessageID, error) {
	se.svc.mu.Lock()
	defer se.svc.mu.Unlock()
	a, err := se.touch()
	if err != nil {
		return 0, err
	}
	id := a.nextID
	a.nextID++
	a.msgs.append(FolderDrafts, &msgText{from: a.address, to: to, subject: subject, body: body},
		se.svc.clock.Now().UnixNano(), true)
	se.svc.journalLocked(a, Event{
		Time: se.svc.clock.Now(), Kind: EventDraftCreate,
		Account: a.address, Cookie: se.cookie, Message: id,
	})
	return id, nil
}

// Send composes and sends a message. The platform rewrites the
// envelope sender when a send-from override is configured (the honey
// sinkhole diversion) and runs abuse detection, which may suspend the
// account mid-call the way Google suspended spamming honey accounts.
// The sent copy lands in the Sent folder either way; suspension takes
// effect for subsequent operations.
func (se *Session) Send(to, subject, body string) (MessageID, error) {
	se.svc.mu.Lock()
	defer se.svc.mu.Unlock()
	a, err := se.touch()
	if err != nil {
		return 0, err
	}
	now := se.svc.clock.Now()
	from := a.address
	if a.sendFrom != "" {
		from = a.sendFrom
	}
	id := a.nextID
	a.nextID++
	a.msgs.append(FolderSent, &msgText{from: a.address, to: to, subject: subject, body: body},
		now.UnixNano(), true)
	se.svc.journalLocked(a, Event{
		Time: now, Kind: EventSend,
		Account: a.address, Cookie: se.cookie, Message: id, Detail: to,
	})
	if err := se.svc.outbound.Deliver(from, to, subject, body, now); err != nil {
		return id, err
	}
	if verdict := se.svc.abuse.recordSend(a, to, now); verdict != "" {
		a.suspended = true
		a.bumpAccessLocked(-1) // scraper-visible: the next login fails
		se.svc.journalLocked(a, Event{Time: now, Kind: EventSuspend, Account: a.address, Detail: verdict})
	}
	return id, nil
}

// ChangePassword rotates the password, invalidating all other
// sessions (including the monitor's scraper — the hijacker behaviour
// of §4.2). The calling session stays valid.
func (se *Session) ChangePassword(newPassword string) error {
	se.svc.mu.Lock()
	defer se.svc.mu.Unlock()
	a, err := se.touch()
	if err != nil {
		return err
	}
	a.password = newPassword
	a.passwordChanges++
	se.passwordAt = a.passwordChanges
	// Scraper-visible even though no activity row changes: the
	// monitor's next login attempt fails, which is exactly the
	// visibility-loss signal §4.2 describes — the version gate must
	// open so that attempt happens on the very next scrape tick.
	a.bumpAccessLocked(-1)
	se.svc.journalLocked(a, Event{
		Time: se.svc.clock.Now(), Kind: EventPasswordChange,
		Account: a.address, Cookie: se.cookie,
	})
	return nil
}

// ActivityPage returns the account's access rows; this is what the
// monitoring scraper reads after logging in (§3.1).
func (se *Session) ActivityPage() ([]Access, error) {
	se.svc.mu.Lock()
	_, err := se.touch()
	se.svc.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return se.svc.ActivityPage(se.acct.address)
}

// ActivitySince streams the activity rows that changed since the
// cursor (a previously returned version; 0 selects every row) to
// visit, in page order (First, then Cookie), and returns the account's
// current access version, atomically. The monitor's version-gated
// scraper uses it to pull per-account deltas instead of copying the
// whole page on every tick; the returned version is the cursor for the
// next scrape. Rows are materialized on the stack straight from the
// columnar store, so a delta scrape allocates nothing the visitor does
// not. The visitor runs under the Service lock and must not call back
// into the Service.
func (se *Session) ActivitySince(cursor uint64, visit func(Access)) (uint64, error) {
	se.svc.mu.Lock()
	defer se.svc.mu.Unlock()
	a, err := se.touch()
	if err != nil {
		return 0, err
	}
	for _, row := range a.acc.order {
		if a.acc.rev[row] > cursor {
			visit(a.acc.materialize(row))
		}
	}
	return a.accessVersion.Load(), nil
}

// Delete moves a message to trash.
func (se *Session) Delete(id MessageID) error {
	se.svc.mu.Lock()
	defer se.svc.mu.Unlock()
	a, err := se.touch()
	if err != nil {
		return err
	}
	i, err := a.rowLocked(id)
	if err != nil {
		return err
	}
	a.msgs.folder[i] = FolderTrash
	return nil
}
