package honeynet

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/appscript"
	"repro/internal/geo"
	"repro/internal/monitor"
)

// Streaming classification wiring: every shard's monitoring pipeline
// (the Apps-Script runtime's notifications and the scraper's
// observations) feeds its own analysis.StreamClassifier through one
// streamSink while the simulation runs. At the end, Aggregates
// finalises each shard's classifier and merges the per-shard
// aggregates — O(shards) merge work — and every report renders from
// them. Dataset rebuilds the merged record-level view from the
// observations the same classifiers retain. Both are identical at any
// shard count (TestShardCountInvariance), and
// TestStreamMatchesReference (internal/analysis) checks every
// aggregate against the record-level reference over the Dataset.

// actionKind maps a script notification kind to the analysis action
// it evidences. Heartbeat and quota notifications are liveness, not
// attacker actions, and map to nothing.
func actionKind(k appscript.NotificationKind) (analysis.ActionKind, bool) {
	switch k {
	case appscript.NoteRead:
		return analysis.ActionRead, true
	case appscript.NoteSent:
		return analysis.ActionSent, true
	case appscript.NoteStarred:
		return analysis.ActionStarred, true
	case appscript.NoteDraft:
		return analysis.ActionDraft, true
	default:
		return "", false
	}
}

// streamSink adapts one shard's monitoring observations to its
// StreamClassifier. Plan annotations (outlet, hint, leak time) are
// not known to the monitor; they are resolved from the experiment
// plan when the aggregates are finalised.
type streamSink struct {
	sc *analysis.StreamClassifier
}

func (s *streamSink) ObserveAccess(r monitor.AccessRecord) {
	a := analysis.Access{
		Account:   r.Account,
		Cookie:    r.Cookie,
		First:     r.First,
		Last:      r.Last,
		IP:        r.IP,
		City:      r.City,
		Country:   r.Country,
		HasPoint:  r.HasPoint,
		UserAgent: r.UserAgent,
	}
	a.Point = geo.Point{Lat: r.Lat, Lon: r.Lon}
	s.sc.ObserveAccess(a)
}

func (s *streamSink) Notify(n appscript.Notification) {
	kind, ok := actionKind(n.Kind)
	if !ok {
		return
	}
	s.sc.ObserveAction(analysis.Action{
		Time:    n.Time,
		Account: n.Account,
		Kind:    kind,
		Message: int64(n.Message),
		Body:    n.Body,
	})
}

func (s *streamSink) ObserveFailure(f monitor.ScrapeFailure) {
	if f.Reason != "password-changed" {
		return
	}
	s.sc.ObservePasswordChange(analysis.PasswordChange{Account: f.Account, Time: f.Time})
}

// facts resolves an account's plan annotations (outlet, hint, leak
// time); accounts outside the plan get zero facts.
func (e *Experiment) facts(account string) analysis.Facts {
	b, ok := e.blockOf[account]
	if !ok {
		return analysis.Facts{}
	}
	return analysis.Facts{
		Outlet:   b.spec.Channel,
		Hint:     b.spec.Hint,
		LeakTime: e.leakTimes[account],
	}
}

// listed reports whether an IP is on the §4.5 blacklist.
func (e *Experiment) listed(ip string) bool {
	_, ok := e.bl.LookupString(ip)
	return ok
}

// BuildAggregates finalises every shard's streaming classifier
// against the plan facts and merges the per-shard aggregates. It
// recomputes from the classifiers' retained state on every call (the
// benchmark harness relies on that); use Aggregates for the cached
// form.
func (e *Experiment) BuildAggregates() (*analysis.Aggregates, error) {
	merged := analysis.NewAggregates()
	for _, sh := range e.shards {
		if err := merged.Merge(sh.sc.Finalize(e.facts, e.listed)); err != nil {
			return nil, fmt.Errorf("honeynet: merge shard %d aggregates: %w", sh.id, err)
		}
	}
	merged.SuspendedAccounts = e.suspendedCount()
	return merged, nil
}

// Aggregates returns the merged streaming aggregates, building them
// on first call and caching the result.
func (e *Experiment) Aggregates() (*analysis.Aggregates, error) {
	if e.agg != nil {
		return e.agg, nil
	}
	agg, err := e.BuildAggregates()
	if err != nil {
		return nil, err
	}
	e.agg = agg
	return agg, nil
}

// SeededContents exposes the seeded mailbox texts (account → message
// id → subject/body), the dA corpus of the §4.6 keyword inference, as
// a lazy view over webmail's columnar message store — the engine
// holds no second copy of the corpus.
func (e *Experiment) SeededContents() analysis.ContentsView { return e.seededView() }
