package report

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// DefenderRow is one honey account's detection-race outcome in
// neutral report form: when its credential leaked, when the C3
// defender detected the leak (if ever), and when an attacker first
// touched the account (if ever). Callers convert from the
// simulation's own outcome type — report stays import-free of the
// engine.
type DefenderRow struct {
	Account    string
	Group      string // plan group label
	Channel    string // leak channel
	LeakAt     time.Time
	Detected   bool
	DetectedAt time.Time
	Exploited  bool
	ExploitAt  time.Time
}

// DefenderTally is one leak channel's detection race: how many
// accounts leaked through it, how many the C3 defender detected, how
// many an attacker exploited, how many races the defender won
// (detection at or before the first attacker access — for an
// undetected account the attacker wins by default, for an unexploited
// one the defender does), and the lower-median gaps from leak to
// detection and from leak to first exploitation (-1 when no account
// got there).
type DefenderTally struct {
	Channel       string
	Accounts      int
	Detected      int
	Exploited     int
	Won           int
	MedianDetect  time.Duration
	MedianExploit time.Duration
}

// DefenderTallies groups rows by leak channel and tallies each, in
// channel order. Output is a pure function of the rows.
func DefenderTallies(rows []DefenderRow) []DefenderTally {
	byChannel := make(map[string][]DefenderRow)
	var channels []string
	for _, r := range rows {
		if _, ok := byChannel[r.Channel]; !ok {
			channels = append(channels, r.Channel)
		}
		byChannel[r.Channel] = append(byChannel[r.Channel], r)
	}
	sort.Strings(channels)
	out := make([]DefenderTally, 0, len(channels))
	for _, ch := range channels {
		out = append(out, tallyDefender(ch, byChannel[ch]))
	}
	return out
}

// Defender renders the detection-race section: one row per leak
// channel (see DefenderTally), plus a totals row over every account
// when more than one channel leaked.
func Defender(rows []DefenderRow) string {
	var b strings.Builder
	b.WriteString("Defender detection race (C3)\n")
	tbl := NewTable("channel", "accounts", "detected", "med-detect", "exploited", "med-exploit", "races-won")
	tallies := DefenderTallies(rows)
	if len(tallies) > 1 {
		tallies = append(tallies, tallyDefender("total", rows))
	}
	for _, t := range tallies {
		tbl.AddRow(
			t.Channel,
			fmt.Sprintf("%d", t.Accounts),
			fmt.Sprintf("%d", t.Detected),
			fmtSpan(t.MedianDetect),
			fmt.Sprintf("%d", t.Exploited),
			fmtSpan(t.MedianExploit),
			fmt.Sprintf("%d", t.Won),
		)
	}
	b.WriteString(tbl.String())
	return b.String()
}

// tallyDefender aggregates one channel's rows (or every row, for the
// totals) under label.
func tallyDefender(label string, rows []DefenderRow) DefenderTally {
	var detectGaps, exploitGaps []time.Duration
	t := DefenderTally{Channel: label, Accounts: len(rows)}
	for _, r := range rows {
		if r.Detected {
			t.Detected++
			detectGaps = append(detectGaps, r.DetectedAt.Sub(r.LeakAt))
		}
		if r.Exploited {
			t.Exploited++
			exploitGaps = append(exploitGaps, r.ExploitAt.Sub(r.LeakAt))
		}
		if r.Detected && (!r.Exploited || !r.DetectedAt.After(r.ExploitAt)) {
			t.Won++
		}
	}
	t.MedianDetect = medianDuration(detectGaps)
	t.MedianExploit = medianDuration(exploitGaps)
	return t
}

// medianDuration returns the lower median (exact element, no
// averaging — the value stays a real observed gap). -1 flags an
// empty set.
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return -1
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)-1)/2]
}

// fmtSpan renders a leak-to-event gap at days+hours precision — the
// scale §4.3's pickup dynamics live at. A negative span (empty set)
// renders as "-".
func fmtSpan(d time.Duration) string {
	if d < 0 {
		return "-"
	}
	days := int(d / (24 * time.Hour))
	hours := int(d % (24 * time.Hour) / time.Hour)
	return fmt.Sprintf("%dd%02dh", days, hours)
}
