package corpus

import (
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
)

// mailboxReference is MailboxAppend over renderReference: the same
// date draws, the same peer draws, the interpreted renderer.
func (g *Generator) mailboxReference(owner Persona, n int, start, end time.Time) []Message {
	span := end.Sub(start)
	offsets := make([]time.Duration, n)
	for i := range offsets {
		offsets[i] = time.Duration(g.src.Float64() * float64(span))
	}
	sortDurations(offsets)
	var out []Message
	for i := 0; i < n; i++ {
		peer := rng.Pick(g.src, g.contacts)
		out = append(out, g.renderReference(owner, peer, start.Add(offsets[i])))
	}
	return out
}

// renderReference is the renderer the compiled templates replaced,
// kept as the oracle: it rescans every template string for {slot}s on
// every message and looks each slot up by name.
func (g *Generator) renderReference(owner, peer Persona, date time.Time) Message {
	tpl := businessTemplates[g.src.Categorical(g.weights)]
	sent := g.src.Bool(0.2)
	from, to := peer, owner
	if sent {
		from, to = owner, peer
	}
	var b []byte
	b = g.fillTo(b, tpl.subject, owner, peer)
	subject := string(b)
	b = append(b[:0], "Dear "...)
	b = append(b, to.First...)
	b = append(b, ",\n\n"...)
	for _, para := range tpl.body {
		b = g.fillTo(b, para, owner, peer)
		b = append(b, "\n\n"...)
	}
	b = append(b, "Regards,\n"...)
	b = append(b, from.First+" "+from.Last+"\n"+from.Title+", "+from.Department+"\n"+g.cfg.Company+"\n"...)
	return Message{From: from.Email, To: to.Email, Subject: subject, Body: string(b), Date: date}
}

// fillTo appends s to b with template slots substituted, left to
// right, one Pick per {slot} with candidates.
func (g *Generator) fillTo(b []byte, s string, owner, peer Persona) []byte {
	for {
		i := strings.IndexByte(s, '{')
		if i < 0 {
			return append(b, s...)
		}
		j := strings.IndexByte(s[i:], '}')
		if j < 0 {
			return append(b, s...)
		}
		b = append(b, s[:i]...)
		slot := s[i+1 : i+j]
		switch slot {
		case "peer":
			b = append(b, peer.First...)
		case "owner":
			b = append(b, owner.First...)
		case "company":
			b = append(b, g.cfg.Company...)
		case "department_topic":
			b = append(b, strings.ToLower(owner.Department)...)
		default:
			if cands, ok := fills[slot]; ok {
				b = append(b, rng.Pick(g.src, cands)...)
			} else {
				b = append(b, slot...)
			}
		}
		s = s[i+j+1:]
	}
}

func sameMailbox(t *testing.T, label string, got, want []Message) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d messages, oracle %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: message %d differs:\ngot  %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}

// TestCompiledRenderMatchesOracle: for many seeds, mailboxes rendered
// from the compiled templates are byte-identical to the interpreted
// renderer's and leave the stream at the same position, both through
// Mailbox and through a Split generator reseeded per mailbox, the way
// the parallel set-up drives it.
func TestCompiledRenderMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		owners := NewPersonas(rng.New(seed+1000), 3, "honeymail.example")
		g, ref := newGen(seed), newGen(seed)
		for k, owner := range owners {
			n := 1 + int(seed)%7 + 40*k
			got := g.Mailbox(owner, n, winStart, winEnd)
			want := ref.mailboxReference(owner, n, winStart, winEnd)
			sameMailbox(t, "Mailbox", got, want)
			if g.src.Pos() != ref.src.Pos() {
				t.Fatalf("seed %d: stream at %d, oracle at %d", seed, g.src.Pos(), ref.src.Pos())
			}
		}

		w, wref := g.Split(nil), ref.Split(nil)
		var msgs []Message
		for k, owner := range owners {
			w.Reseed(rng.New(seed*31 + int64(k)))
			wref.Reseed(rng.New(seed*31 + int64(k)))
			msgs = w.MailboxAppend(msgs[:0], owner, 90, winStart, winEnd)
			want := wref.mailboxReference(owner, 90, winStart, winEnd)
			sameMailbox(t, "Split+Reseed", msgs, want)
			if w.src.Pos() != wref.src.Pos() {
				t.Fatalf("seed %d split: stream at %d, oracle at %d", seed, w.src.Pos(), wref.src.Pos())
			}
		}
	}
}

// TestCompileMatchesFillTo covers template shapes the built-in library
// does not use: unknown slots, a '{' that never closes, a brace inside
// a slot, empty slots and back-to-back fills.
func TestCompileMatchesFillTo(t *testing.T) {
	owner := Persona{First: "Ada", Last: "Lee", Email: "ada.lee@honeymail.example", Department: "Risk Management"}
	peer := Persona{First: "Bo", Last: "Ng"}
	for _, s := range []string{
		"", "plain text", "{peer}", "{owner} and {peer} at {company}",
		"headcount for {department_topic}", "{month}{month} {weekday}",
		"an {unknown} slot", "{}", "open { brace", "x {peer", "{a{b} c",
		"{{peer}}", "}{", "{region", "trailing {city}", "{amount}{contractno}{quarter}",
	} {
		g, ref := newGen(9), newGen(9)
		got := string(g.fill(nil, compile(s), owner, peer))
		want := string(ref.fillTo(nil, s, owner, peer))
		if got != want {
			t.Errorf("%q renders %q, oracle %q", s, got, want)
		}
		if g.src.Pos() != ref.src.Pos() {
			t.Errorf("%q: stream at %d, oracle at %d", s, g.src.Pos(), ref.src.Pos())
		}
	}
}
