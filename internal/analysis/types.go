package analysis

import (
	"time"

	"repro/internal/geo"
)

// Outlet labels the leak channel of an account, as the experiment plan
// records it.
type Outlet string

// The channels of Table 1.
const (
	OutletPaste        Outlet = "paste"
	OutletPasteRussian Outlet = "paste-ru"
	OutletForum        Outlet = "forum"
	OutletMalware      Outlet = "malware"
)

// Hint is the advertised decoy-location region of a leak group.
type Hint string

// Location hints used in the leaks (§3.2).
const (
	HintNone Hint = ""
	HintUK   Hint = "uk"
	HintUS   Hint = "us"
)

// Access is one unique access (one cookie on one account) as the
// monitoring pipeline sees it, annotated with the experiment-plan
// facts for the account (outlet, hint, leak time).
type Access struct {
	Account string
	Cookie  string
	First   time.Time
	Last    time.Time

	Outlet   Outlet
	Hint     Hint
	LeakTime time.Time

	IP        string
	City      string
	Country   string
	HasPoint  bool
	Point     geo.Point
	UserAgent string
}

// Duration returns tlast − t0 (Figure 1's metric).
func (a Access) Duration() time.Duration { return a.Last.Sub(a.First) }

// ActionKind labels observed mailbox actions (from notifications).
type ActionKind string

// Action kinds reported by the instrumentation.
const (
	ActionRead    ActionKind = "read"
	ActionSent    ActionKind = "sent"
	ActionStarred ActionKind = "starred"
	ActionDraft   ActionKind = "draft"
)

// Action is one observed mailbox action on an account. Notifications
// carry no cookie: attribution to accesses is inferred by time window
// (see Classify).
type Action struct {
	Time    time.Time
	Account string
	Kind    ActionKind
	Message int64
	Body    string // draft copy when Kind == ActionDraft
}

// PasswordChange records when the scraper lost an account to a
// hijacker (reason "password-changed" in monitor terms).
type PasswordChange struct {
	Account string
	Time    time.Time
}

// Dataset is the record-level form of a deployment's observations,
// such as logs gathered outside the simulator. AggregatesFromDataset
// turns it into the Aggregates every figure derives from; Classify
// gives its per-access classes.
type Dataset struct {
	Accesses        []Access
	Actions         []Action
	PasswordChanges []PasswordChange
	// Blacklisted is the set of observed IPs found on the Spamhaus
	// blacklist cross-check (§4.5).
	Blacklisted map[string]bool
	// SuspendedAccounts counts accounts the platform blocked (§4.1).
	SuspendedAccounts int
}

// ContentsView is a read-only view of the seeded mailbox text: every
// message the setup phase placed in a honey account, addressable by
// (account, message id). Together with the draft bodies from
// notifications it reconstructs the text of every read email for
// TF-IDF (§4.6). The honeynet implements it lazily over webmail's
// columnar message store, so analysis reads the one stored copy
// instead of a per-experiment duplicate.
type ContentsView interface {
	// Accounts returns how many accounts the view covers.
	Accounts() int
	// Message returns the stored subject and body of one seeded
	// message; ok is false when the account or id is not part of the
	// seeded corpus.
	Message(account string, id int64) (subject, body string, ok bool)
	// Each visits every seeded message exactly once. Visit order is
	// unspecified — TF-IDF weighs term counts, so consumers must not
	// depend on it.
	Each(fn func(account string, id int64, subject, body string))
}
