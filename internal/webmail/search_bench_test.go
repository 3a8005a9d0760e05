package webmail_test

import (
	"testing"
	"time"

	"repro/internal/attacker"
	"repro/internal/corpus"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/webmail"
)

// corpusMailbox seeds one account the way the deployment does: 90
// messages rendered by corpus.Generator over the six months before
// the leak, the owner's own mail in Sent and the rest in the inbox.
// It returns a logged-in session and the seeded messages.
func corpusMailbox(b *testing.B) (*webmail.Session, []corpus.Message) {
	b.Helper()
	start := time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)
	clock := simtime.NewClock(start)
	svc := webmail.NewService(webmail.Config{Clock: clock})
	src := rng.New(42)
	owner := corpus.NewPersonas(src.ForkNamed("personas"), 1, "honeymail.example")[0]
	gen := corpus.NewGenerator(src.ForkNamed("corpus"), corpus.DefaultConfig())
	msgs := gen.Mailbox(owner, 90, start.Add(-180*24*time.Hour), start)
	if err := svc.CreateAccount(owner.Email, "pw", owner.FullName()); err != nil {
		b.Fatal(err)
	}
	for _, m := range msgs {
		folder := webmail.FolderInbox
		if m.From == owner.Email {
			folder = webmail.FolderSent
		}
		if _, err := svc.Seed(owner.Email, folder, m.From, m.To, m.Subject, m.Body, m.Date); err != nil {
			b.Fatal(err)
		}
	}
	ep, err := netsim.NewAddressSpace(rng.New(1), geo.Default()).FromCity("Paris")
	if err != nil {
		b.Fatal(err)
	}
	se, err := svc.Login(owner.Email, "pw", "", ep)
	if err != nil {
		b.Fatal(err)
	}
	return se, msgs
}

// textBytes is the subject and body bytes one pass over msgs offers
// each keyword.
func textBytes(msgs []corpus.Message) int64 {
	var n int64
	for _, m := range msgs {
		n += int64(len(m.Subject) + len(m.Body))
	}
	return n
}

var sinkHits int

// BenchmarkContainsFold runs the ASCII search kernel over the subject
// and body of every message of a seeded mailbox, once per gold-digger
// keyword: one op is 14 passes over the mailbox's text.
func BenchmarkContainsFold(b *testing.B) {
	_, msgs := corpusMailbox(b)
	keywords := attacker.GoldKeywords()
	b.SetBytes(int64(len(keywords)) * textBytes(msgs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits := 0
		for _, kw := range keywords {
			for _, m := range msgs {
				if webmail.ContainsFold(m.Subject, kw) {
					hits++
				}
				if webmail.ContainsFold(m.Body, kw) {
					hits++
				}
			}
		}
		sinkHits = hits
	}
}

// BenchmarkSearchCorpusMailbox is the gold digger's query loop as the
// engine runs it: Session.Search for each of the 14 keywords over a
// seeded mailbox, hits materialized and the query journaled. MB/s
// counts the text offered to each query; a message whose subject
// matches skips its body.
func BenchmarkSearchCorpusMailbox(b *testing.B) {
	se, msgs := corpusMailbox(b)
	keywords := attacker.GoldKeywords()
	b.SetBytes(int64(len(keywords)) * textBytes(msgs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits := 0
		for _, kw := range keywords {
			found, err := se.Search(kw)
			if err != nil {
				b.Fatal(err)
			}
			hits += len(found)
		}
		sinkHits = hits
	}
}
