package analysis

import "time"

// Class is the taxonomy of §4.2, as inferred from monitoring data.
type Class uint8

const (
	// Curious accesses log in and do nothing else.
	Curious Class = 1 << iota
	// GoldDigger accesses read mailbox content (the observable
	// footprint of searching for sensitive information).
	GoldDigger
	// Spammer accesses send email.
	Spammer
	// Hijacker accesses change the account password.
	Hijacker
)

// Has reports whether c includes x.
func (c Class) Has(x Class) bool { return c&x != 0 }

// String lists the classes.
func (c Class) String() string {
	if c == 0 || c == Curious {
		return "curious"
	}
	out := ""
	add := func(s string) {
		if out != "" {
			out += "+"
		}
		out += s
	}
	if c.Has(GoldDigger) {
		add("gold-digger")
	}
	if c.Has(Spammer) {
		add("spammer")
	}
	if c.Has(Hijacker) {
		add("hijacker")
	}
	return out
}

// Classified pairs an access with its inferred classes.
type Classified struct {
	Access  Access
	Classes Class
}

// classifySlack extends each access window to absorb the scan-trigger
// delay: a notification can arrive up to one scan interval after the
// action (the paper's 10-minute scan cadence).
const classifySlack = 10 * time.Minute

// Classify attributes actions and password changes to accesses and
// derives each access's taxonomy classes.
//
// Attribution is by time window: an action on account A at time t
// belongs to the accesses of A whose [First, Last+classifySlack]
// window contains t. If no window matches (e.g. the scraper lost the
// account before the action), the action attaches to the account's
// access with the latest Last before t — the best the paper's pipeline
// could do after a hijack froze the activity page.
//
// Attribution is purely per-account (actions on one account never
// touch another account's accesses) and each action's attribution is
// independent of the others, so the streaming pipeline reaches the
// same result by running the same per-account core — classifyAccount
// — shard by shard; see StreamClassifier.
func Classify(ds *Dataset) []Classified {
	byAccount := make(map[string][]*Classified)
	out := make([]Classified, len(ds.Accesses))
	for i, a := range ds.Accesses {
		out[i] = Classified{Access: a, Classes: Curious}
		byAccount[a.Account] = append(byAccount[a.Account], &out[i])
	}
	actionsBy := make(map[string][]Action)
	for _, act := range ds.Actions {
		actionsBy[act.Account] = append(actionsBy[act.Account], act)
	}
	changesBy := make(map[string][]PasswordChange)
	for _, pc := range ds.PasswordChanges {
		changesBy[pc.Account] = append(changesBy[pc.Account], pc)
	}
	for account, accesses := range byAccount {
		classifyAccount(accesses, actionsBy[account], changesBy[account])
	}
	return out
}

// classifyAccount runs the window attribution for one account: the
// shared core of the batch Classify and the per-shard streaming
// classifier. accesses must all belong to the same account as the
// actions and changes; their order decides ties (equal First in the
// window match, equal Last in the fallback), so callers must present
// them in a canonical order — both paths use ascending cookie.
func classifyAccount(accesses []*Classified, actions []Action, changes []PasswordChange) {
	attribute := func(t time.Time, apply func(*Classified)) {
		// Among accesses whose [First, Last+classifySlack] window holds t,
		// the most recently started one is the most plausible actor;
		// concurrent lurkers should not inherit the action.
		var match *Classified
		for _, c := range accesses {
			if t.Before(c.Access.First) || t.After(c.Access.Last.Add(classifySlack)) {
				continue
			}
			if match == nil || c.Access.First.After(match.Access.First) {
				match = c
			}
		}
		if match != nil {
			apply(match)
			return
		}
		// Fallback: latest access that started before t (the activity
		// page may have frozen before the action, §4.2).
		var best *Classified
		for _, c := range accesses {
			if c.Access.First.After(t) {
				continue
			}
			if best == nil || c.Access.Last.After(best.Access.Last) {
				best = c
			}
		}
		if best != nil {
			apply(best)
		}
	}

	for _, act := range actions {
		switch act.Kind {
		case ActionRead, ActionDraft, ActionStarred:
			attribute(act.Time, func(c *Classified) { c.Classes |= GoldDigger })
		case ActionSent:
			attribute(act.Time, func(c *Classified) { c.Classes |= Spammer })
		}
	}
	for _, pc := range changes {
		attribute(pc.Time, func(c *Classified) { c.Classes |= Hijacker })
	}
}

// ClassCounts tallies accesses per class; overlapping classes count in
// each bucket, mirroring §4.2's non-exclusive totals (224 curious, 82
// gold diggers, 8 spammers, 36 hijackers in the paper).
type ClassCounts struct {
	Total      int
	Curious    int
	GoldDigger int
	Spammer    int
	Hijacker   int
}

// add folds one classified access into the tally.
func (out *ClassCounts) add(c Class) {
	out.Total++
	switch {
	case c == Curious || c == 0:
		out.Curious++
	default:
		if c.Has(GoldDigger) {
			out.GoldDigger++
		}
		if c.Has(Spammer) {
			out.Spammer++
		}
		if c.Has(Hijacker) {
			out.Hijacker++
		}
	}
}

// merge adds another tally (used when merging shard aggregates).
func (out *ClassCounts) merge(o ClassCounts) {
	out.Total += o.Total
	out.Curious += o.Curious
	out.GoldDigger += o.GoldDigger
	out.Spammer += o.Spammer
	out.Hijacker += o.Hijacker
}
