package honeynet

import (
	"repro/internal/analysis"
	"repro/internal/webmail"
)

// The seeded-contents view: the §4.6 keyword inference needs every
// message the setup phase placed in the honey accounts (the dA
// corpus), and the text of each message an attacker read (dR). The
// engine used to keep a second copy of all of it — account → id →
// subject+body, ~55KB per account at the default mailbox size — built
// eagerly during Setup. The columnar webmail store already holds
// those exact strings, so the view below reads them back lazily
// instead: SeededContents() costs a slice of addresses, not a
// duplicate of the corpus.

// seededContents implements analysis.ContentsView over webmail's
// message columns. Seeded ids are exactly 1..maxID per account
// (Setup and the snapshot restore both place them there, and nothing
// in the simulated run deletes or edits seeded mail); later messages
// — quota notices, attacker drafts — deliberately report absent, so
// the view exposes precisely the corpus the retired duplicate held.
// It holds each account's shard platform and nothing else of the
// engine, so a view that outlives its experiment keeps no shard's
// scheduler alive.
type seededContents struct {
	accounts []string                    // plan order
	platform map[string]*webmail.Service // account -> its shard's platform
	maxID    int64                       // Config.MailboxSize
}

// Accounts implements analysis.ContentsView.
func (v seededContents) Accounts() int { return len(v.accounts) }

// Message implements analysis.ContentsView. The returned strings
// alias the message store — no per-call copy.
func (v seededContents) Message(account string, id int64) (subject, body string, ok bool) {
	svc := v.platform[account]
	if svc == nil || id < 1 || id > v.maxID {
		return "", "", false
	}
	return svc.MessageText(account, webmail.MessageID(id))
}

// Each implements analysis.ContentsView, scanning each account's
// seeded rows under a single lock acquisition.
func (v seededContents) Each(fn func(account string, id int64, subject, body string)) {
	for _, account := range v.accounts {
		account := account
		v.platform[account].EachMessageText(account, v.maxID, func(id int64, subject, body string) {
			fn(account, id, subject, body)
		})
	}
}

// seededView builds the lazy contents view over the current
// assignments (plan order).
func (e *Experiment) seededView() analysis.ContentsView {
	v := seededContents{
		accounts: make([]string, len(e.assignments)),
		platform: make(map[string]*webmail.Service, len(e.assignments)),
		maxID:    int64(e.cfg.MailboxSize),
	}
	for i, a := range e.assignments {
		v.accounts[i] = a.Account
		v.platform[a.Account] = e.Service(a.Account)
	}
	return v
}
