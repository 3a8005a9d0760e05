package webmail

import (
	"fmt"
	"time"

	"repro/internal/snapshot"
)

// ExportAccount captures an account's full pre-activity state in the
// snapshot's account record: identity, credentials and seeded
// messages, in ascending ID order (the canonical export order).
// Activity state (access rows, journal, version counters) has no place
// in the record — the snapshot engine only freezes experiments before
// any simulated activity — so ExportAccount errors if the account has
// journal entries, access rows or version bumps: such an account is
// past the boundary this export models, and silently dropping its
// activity would corrupt a resumed run.
func (s *Service) ExportAccount(address string) (snapshot.Account, error) {
	a, err := s.acquire(address)
	if err != nil {
		return snapshot.Account{}, err
	}
	defer s.mu.Unlock()
	if a.journal.len() > 0 || a.acc.len() > 0 || a.suspended ||
		a.version != 0 || a.accessVersion.Load() != 0 {
		return snapshot.Account{}, fmt.Errorf("webmail: account %s has live activity; only pre-activity accounts export", address)
	}
	out := snapshot.Account{
		Address:  a.address,
		Password: a.password,
		Owner:    a.owner,
		SendFrom: a.sendFrom,
		NextID:   int64(a.nextID),
	}
	if n := a.msgs.rows(); n > 0 {
		out.Messages = make([]snapshot.Message, n)
	}
	// Columnar rows are ID-ascending by construction — the canonical
	// export order falls out of a straight scan.
	for i, t := range a.msgs.text {
		out.Messages[i] = snapshot.Message{
			ID: int64(i + 1), Folder: string(a.msgs.folder[i]),
			From: t.from, To: t.to, Subject: t.subject, Body: t.body,
			DateNS: a.msgs.dateNS[i],
			Read:   a.msgs.read[i], Starred: a.msgs.starred[i],
			Labels: append([]string(nil), t.labels...),
		}
	}
	return out, nil
}

// AppendSeeded adds one seeded message to an account record, filed the
// way set-up seeds a mailbox: mail from the account's own address goes
// to Sent and counts as read, as Service.Seed marks sent mail, and
// anything else lands unread in the Inbox. IDs run 1..n in call order
// and NextID follows, the shape ExportAccount emits and
// RestoreAccount accepts, so a bulk loader can build a whole mailbox
// here and restore it in one call.
func AppendSeeded(acct *snapshot.Account, from, to, subject, body string, date time.Time) {
	folder := FolderInbox
	if from == acct.Address {
		folder = FolderSent
	}
	id := int64(len(acct.Messages)) + 1
	acct.Messages = append(acct.Messages, snapshot.Message{
		ID: id, Folder: string(folder), From: from, To: to,
		Subject: subject, Body: body, DateNS: date.UnixNano(), Read: folder == FolderSent,
	})
	acct.NextID = id + 1
}

// RestoreAccount recreates an exported account exactly as a
// CreateAccount + SetSendFrom + Seed sequence would have left it:
// version counters start at zero and no journal entries exist. The
// record is treated as read-only, so one decoded snapshot
// can seed many experiments concurrently (the warm-started scenario
// matrix does).
//
// Only the shape ExportAccount produces is accepted: messages with IDs
// 1..n in order and NextID n+1. Gaps in the ID sequence come only from
// activity, which ExportAccount refuses, so any other shape is a
// corrupt or hostile export, and refusing it before anything is
// allocated keeps one crafted ID from sizing the mailbox. Each message
// column is then allocated once at n rows, and the n text payloads as
// one slab.
func (s *Service) RestoreAccount(exp *snapshot.Account) error {
	if exp.Address == "" {
		return fmt.Errorf("webmail: restore of account with empty address")
	}
	n := len(exp.Messages)
	if exp.NextID != int64(n)+1 {
		return fmt.Errorf("webmail: restore %s: next id %d after %d messages, want %d", exp.Address, exp.NextID, n, n+1)
	}
	for i, me := range exp.Messages {
		if me.ID != int64(i)+1 {
			return fmt.Errorf("webmail: restore %s: message %d has id %d, want %d", exp.Address, i, me.ID, i+1)
		}
	}
	a := &account{
		address:  exp.Address,
		password: exp.Password,
		owner:    exp.Owner,
		sendFrom: exp.SendFrom,
		nextID:   MessageID(exp.NextID),
	}
	if n > 0 {
		ms := &a.msgs
		ms.folder = make([]Folder, n)
		ms.read = make([]bool, n)
		ms.starred = make([]bool, n)
		ms.dateNS = make([]int64, n)
		ms.text = make([]*msgText, n)
		texts := make([]msgText, n)
		for i, me := range exp.Messages {
			t := &texts[i]
			t.from, t.to, t.subject, t.body = me.From, me.To, me.Subject, me.Body
			if len(me.Labels) > 0 {
				t.labels = append([]string(nil), me.Labels...)
			}
			ms.folder[i] = Folder(me.Folder)
			ms.read[i] = me.Read
			ms.starred[i] = me.Starred
			ms.dateNS[i] = me.DateNS
			ms.text[i] = t
		}
	}
	return s.insert(a)
}
