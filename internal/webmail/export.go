package webmail

import (
	"fmt"
	"time"
)

// AccountExport is the serializable server-side state of one mailbox
// at the experiment's post-setup boundary: identity, credentials and
// seeded messages. Activity state (access rows, journal, version
// counters) is intentionally absent — the snapshot engine only
// freezes experiments before any simulated activity, and ExportAccount
// refuses to export an account that has already accumulated any.
type AccountExport struct {
	Address  string
	Password string
	Owner    string
	SendFrom string
	NextID   int64
	Messages []MessageExport
}

// MessageExport is one stored mail in neutral form.
type MessageExport struct {
	ID      int64
	Folder  string
	From    string
	To      string
	Subject string
	Body    string
	Date    time.Time
	Read    bool
	Starred bool
	Labels  []string
}

// ExportAccount captures an account's full pre-activity state, with
// messages in ascending ID order (the canonical export order). It
// errors if the account has journal entries, access rows or version
// bumps: such an account is past the boundary this export models, and
// silently dropping its activity would corrupt a resumed run.
func (s *Service) ExportAccount(address string) (AccountExport, error) {
	p, a, err := s.acquire(address)
	if err != nil {
		return AccountExport{}, err
	}
	defer p.mu.Unlock()
	if a.journal.len() > 0 || a.acc.len() > 0 || a.suspended ||
		a.version != 0 || a.accessVersion.Load() != 0 {
		return AccountExport{}, fmt.Errorf("webmail: account %s has live activity; only pre-activity accounts export", address)
	}
	out := AccountExport{
		Address:  a.address,
		Password: a.password,
		Owner:    a.owner,
		SendFrom: a.sendFrom,
		NextID:   int64(a.nextID),
	}
	// Columnar rows are ID-ascending by construction — the canonical
	// export order falls out of a straight scan.
	for i, t := range a.msgs.text {
		if t == nil {
			continue
		}
		out.Messages = append(out.Messages, MessageExport{
			ID: int64(i + 1), Folder: string(a.msgs.folder[i]),
			From: t.from, To: t.to, Subject: t.subject, Body: t.body,
			Date: time.Unix(0, a.msgs.dateNS[i]).UTC(),
			Read: a.msgs.read[i], Starred: a.msgs.starred[i],
			Labels: append([]string(nil), t.labels...),
		})
	}
	return out, nil
}

// RestoreAccountIn recreates an exported account on an explicit
// partition, exactly as a CreateAccountIn + Seed sequence would have
// left it: version counters start at zero and no journal entries
// exist. The export is treated as
// read-only, so one decoded snapshot can seed many experiments
// concurrently (the warm-started scenario matrix does).
func (s *Service) RestoreAccountIn(part int, exp AccountExport) error {
	if part < 0 || part >= len(s.parts) {
		return fmt.Errorf("webmail: partition %d out of range [0,%d)", part, len(s.parts))
	}
	if exp.Address == "" {
		return fmt.Errorf("webmail: restore of account with empty address")
	}
	a := &account{
		address:  exp.Address,
		password: exp.Password,
		owner:    exp.Owner,
		sendFrom: exp.SendFrom,
		nextID:   MessageID(exp.NextID),
	}
	for _, me := range exp.Messages {
		id := MessageID(me.ID)
		if id <= 0 || id >= a.nextID {
			return fmt.Errorf("webmail: restore %s: message id %d outside [1,%d)", exp.Address, me.ID, exp.NextID)
		}
		t := &msgText{from: me.From, to: me.To, subject: me.Subject, body: me.Body}
		if len(me.Labels) > 0 {
			t.labels = append([]string(nil), me.Labels...)
		}
		if !a.msgs.place(id, Folder(me.Folder), t, me.Date.UnixNano(), me.Read, me.Starred) {
			return fmt.Errorf("webmail: restore %s: duplicate message id %d", exp.Address, me.ID)
		}
	}
	p := s.parts[part]
	// Same lock order as CreateAccountIn: index lock, then partition.
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[exp.Address]; ok {
		return ErrAccountExists
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s.index[exp.Address] = p
	p.accounts[exp.Address] = a
	return nil
}
