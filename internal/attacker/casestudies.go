package attacker

import (
	"fmt"
	"time"

	"repro/internal/rng"
	"repro/internal/webmail"
)

// Case studies from §4.7, scripted so the full run (and its benches)
// reproduce the paper's anecdotes:
//
//  1. A blackmailer used three honey accounts to send ransom demands
//     to Ashley-Madison-scandal victims, with bitcoin payment
//     tutorials, and abandoned many drafts that later visitors read —
//     which is how bitcoin-related terms entered the "read emails"
//     document and surfaced at the top of Table 2.
//  2. Two accounts received Apps-Script quota notices ("using too much
//     computer time") that an attacker then read.
//  3. One honey account was used as the registration address on a
//     carding forum; the confirmation email arrived in the inbox.

// blackmailDraft is the ransom template; the vocabulary (bitcoin,
// localbitcoins, seller, wallet, family, results, listed, below,
// payment) is what makes Table 2's left column reproduce.
func blackmailDraft(src *rng.Source, victim string) (subject, body string) {
	wallet := fmt.Sprintf("1%015x", src.Int63())
	subject = "Your secret results are listed"
	body = fmt.Sprintf(
		"I have the full membership results with your name listed below.\n"+
			"Unless you make a payment of 2 bitcoin to the bitcoin wallet below,\n"+
			"every account detail goes to your family and your employer.\n\n"+
			"Bitcoin wallet: %s\n\n"+
			"Bitcoin tutorial for first-time buyers: open an account at\n"+
			"localbitcoins, pick a localbitcoins seller with good results,\n"+
			"buy bitcoins from the seller, and send the bitcoins as payment\n"+
			"to the wallet listed below. The payment must be in bitcoin only;\n"+
			"no other payment protects your family. You have three days.\n\n"+
			"Recipient: %s\n", wallet, victim)
	return subject, body
}

// RunBlackmailCampaign scripts case study 1 across the given accounts
// (the paper used three). For each account the blackmailer logs in
// from a proxy, sends several ransom emails (sinkholed), and abandons
// more drafts than it sends. It returns the number of messages sent.
func (e *Engine) RunBlackmailCampaign(accounts []string, at time.Time) int {
	sent := 0
	for _, account := range accounts {
		account := account
		e.sched.At(at, "case-blackmail", func(time.Time) {
			e.mu.Lock()
			password := e.passwords[account]
			e.mu.Unlock()
			if password == "" {
				return
			}
			ep := e.space.OpenProxy()
			rec := &Record{
				Account: account, Outlet: OutletPaste,
				Classes: ClassGoldDigger | ClassSpammer,
				Proxy:   true, EmptyUA: true,
				FirstAt: e.sched.Now(),
				Cookie:  e.jar.Issue(),
				Visits:  1,
			}
			e.mu.Lock()
			e.records = append(e.records, rec)
			e.blackmailers++
			e.mu.Unlock()
			se, err := e.svc.Login(account, password, rec.Cookie, ep)
			if err != nil {
				return
			}
			// Send a handful of demands...
			for i := 0; i < 3; i++ {
				victim := fmt.Sprintf("member%04d@ashley-victims.example", e.src.Intn(10000))
				subject, body := blackmailDraft(e.src, victim)
				if _, err := se.Send(victim, subject, body); err != nil {
					break
				}
				sent++
			}
			// ...and abandon many more drafts targeting further victims.
			for i := 0; i < 4+e.src.Intn(4); i++ {
				victim := fmt.Sprintf("member%04d@ashley-victims.example", e.src.Intn(10000))
				subject, body := blackmailDraft(e.src, victim)
				se.CreateDraft(victim, subject, body)
			}
		})
		at = at.Add(time.Duration(1+e.src.Intn(48)) * time.Hour)
	}
	return len(accounts)
}

// Blackmailers reports how many blackmail sessions ran.
func (e *Engine) Blackmailers() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.blackmailers
}

// RunQuotaReader scripts case study 2: an attacker logs into the
// account (which should have received an Apps-Script quota notice by
// then) and reads every platform notification in the inbox.
func (e *Engine) RunQuotaReader(account string, at time.Time) {
	e.sched.At(at, "case-quota-reader", func(time.Time) {
		e.mu.Lock()
		password := e.passwords[account]
		e.mu.Unlock()
		if password == "" {
			return
		}
		ep := e.space.TorExit()
		rec := &Record{
			Account: account, Outlet: OutletForum,
			Classes: ClassCurious, Tor: true, EmptyUA: true,
			FirstAt: e.sched.Now(), Cookie: e.jar.Issue(), Visits: 1,
		}
		e.mu.Lock()
		e.records = append(e.records, rec)
		e.mu.Unlock()
		se, err := e.svc.Login(account, password, rec.Cookie, ep)
		if err != nil {
			return
		}
		msgs, err := se.List(webmail.FolderInbox)
		if err != nil {
			return
		}
		for _, m := range msgs {
			if m.From == "apps-script-notifications@platform.example" {
				se.Read(m.ID)
			}
		}
	})
}

// RunCardingRegistration scripts case study 3: an attacker registers
// on a carding forum using the honey account as the contact address;
// the forum's confirmation email lands in the inbox and the attacker
// comes back to read it (the "stepping stone" use of stolen accounts).
func (e *Engine) RunCardingRegistration(account string, at time.Time) {
	e.sched.At(at, "case-carding", func(time.Time) {
		id, err := e.svc.DeliverInbound(account,
			"no-reply@cardershaven.example",
			"Confirm your cardershaven registration",
			"Welcome! Confirm your account by entering the code 58731 within 48 hours.")
		if err != nil {
			return
		}
		e.sched.After(2*time.Hour, "case-carding-read", func(time.Time) {
			e.mu.Lock()
			password := e.passwords[account]
			e.mu.Unlock()
			if password == "" {
				return
			}
			ep := e.space.OpenProxy()
			rec := &Record{
				Account: account, Outlet: OutletForum,
				Classes: ClassCurious, Proxy: true, EmptyUA: true,
				FirstAt: e.sched.Now(), Cookie: e.jar.Issue(), Visits: 1,
			}
			e.mu.Lock()
			e.records = append(e.records, rec)
			e.mu.Unlock()
			se, err := e.svc.Login(account, password, rec.Cookie, ep)
			if err != nil {
				return
			}
			se.Read(id)
		})
	})
}

// RegisterCredential primes the engine with a credential without any
// outlet event — used by the scripted case studies and by tests.
func (e *Engine) RegisterCredential(account, password string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.passwords[account]; !ok {
		e.passwords[account] = password
	}
}
