// Package webmail implements the webmail platform the honey accounts
// live on — the simulation's stand-in for Gmail.
//
// The paper's methodology depends on a small set of webmail behaviours
// (§2, §3.1): folders (inbox, sent, drafts), unread/starred flags,
// keyword search, drafts, a per-browser cookie
// identity for each access, an account activity page exposing the
// login city and a device fingerprint, password changes that lock out
// other parties, a per-account send-from override (used to divert all
// honey mail to the researchers' sinkhole), and platform-side abuse
// detection that suspends accounts which misbehave (42 of the 100
// honey accounts were blocked by Google during the study, §4.1).
// This package implements all of them behind an in-process API plus a
// TCP JSON-line protocol (see server.go) so the same service can be
// driven over a real socket.
package webmail

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/netsim"
)

// Folder names a mailbox folder.
type Folder string

// The standard folders.
const (
	FolderInbox  Folder = "inbox"
	FolderSent   Folder = "sent"
	FolderDrafts Folder = "drafts"
	FolderTrash  Folder = "trash"
)

// MessageID identifies a message within one account.
type MessageID int64

// Message is a stored email as the API presents it. Internally the
// service keeps messages as parallel columns (see columnar.go); this
// struct is materialized on demand, so callers can never mutate
// stored state through it. Search folds case on the fly over the
// columnar text payload (msgText.matchTerms); no lowered copy of the
// text is ever retained.
type Message struct {
	ID      MessageID
	Folder  Folder
	From    string
	To      string
	Subject string
	Body    string
	Date    time.Time
	Read    bool
	Starred bool
	Labels  []string
}

// EventKind enumerates the account activity the platform journals.
// The journal is ground truth used by tests and ablations; the paper's
// monitoring pipeline only sees what the Apps-Script scans and the
// activity page expose.
type EventKind int

const (
	EventLogin EventKind = iota
	EventRead
	EventStar
	EventSend
	EventDraftCreate
	EventSearch
	EventPasswordChange
	EventSuspend
	EventLoginBlocked
)

// String returns the event label used in logs.
func (k EventKind) String() string {
	switch k {
	case EventLogin:
		return "login"
	case EventRead:
		return "read"
	case EventStar:
		return "star"
	case EventSend:
		return "send"
	case EventDraftCreate:
		return "draft-create"
	case EventSearch:
		return "search"
	case EventPasswordChange:
		return "password-change"
	case EventSuspend:
		return "suspend"
	case EventLoginBlocked:
		return "login-blocked"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one ground-truth journal entry.
type Event struct {
	Time    time.Time
	Kind    EventKind
	Account string
	Cookie  string
	Message MessageID // 0 when not message-related
	Detail  string    // search query, recipient, etc.
}

// Access is one row of the account activity page: everything Google
// exposes about a browser (cookie) that touched the account (§3.1,
// §4.3–4.5).
type Access struct {
	Cookie    string
	First     time.Time // t0: first time this cookie was observed
	Last      time.Time // tlast: last time this cookie was observed
	IP        string
	City      string // "" for Tor exits / anonymous proxies
	Country   string
	Lat, Lon  float64
	HasPoint  bool // false when geolocation failed
	UserAgent string
	Browser   netsim.Browser
	Device    netsim.DeviceClass
	Visits    int // number of distinct logins with this cookie

	// rev is the account's accessVersion when this row last changed.
	// The cursor-based activity-page scrape (Session.ActivitySince)
	// uses it to return only the rows a poller has not seen yet.
	rev uint64
}

// Errors returned by the service.
var (
	ErrNoSuchAccount  = errors.New("webmail: no such account")
	ErrBadPassword    = errors.New("webmail: invalid credentials")
	ErrSuspended      = errors.New("webmail: account suspended")
	ErrLoginBlocked   = errors.New("webmail: login blocked by risk analysis")
	ErrNoSuchMessage  = errors.New("webmail: no such message")
	ErrSessionExpired = errors.New("webmail: session invalidated")
	ErrAccountExists  = errors.New("webmail: account already exists")
)

// Outbound delivers mail leaving the platform. The honeynet wires
// this to the sinkhole server so no honey mail escapes (§3.1: the
// modified mailserver "simply dumps the emails to disk and does not
// forward them").
type Outbound interface {
	Deliver(from, to, subject, body string, at time.Time) error
}

// OutboundFunc adapts a function to the Outbound interface.
type OutboundFunc func(from, to, subject, body string, at time.Time) error

// Deliver implements Outbound.
func (f OutboundFunc) Deliver(from, to, subject, body string, at time.Time) error {
	return f(from, to, subject, body, at)
}

// DiscardOutbound drops all mail (a null sinkhole).
var DiscardOutbound = OutboundFunc(func(string, string, string, string, time.Time) error { return nil })
