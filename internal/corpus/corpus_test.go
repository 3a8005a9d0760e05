package corpus

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

var (
	winStart = time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	winEnd   = time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)
)

func newGen(seed int64) *Generator {
	return NewGenerator(rng.New(seed), DefaultConfig())
}

func TestNewPersonasDistinctEmails(t *testing.T) {
	ps := NewPersonas(rng.New(1), 100, "example.com")
	if len(ps) != 100 {
		t.Fatalf("got %d personas", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Email] {
			t.Fatalf("duplicate email %q", p.Email)
		}
		seen[p.Email] = true
		if p.First == "" || p.Last == "" || !strings.Contains(p.Email, "@") {
			t.Fatalf("malformed persona %+v", p)
		}
	}
}

func TestPersonaHelpers(t *testing.T) {
	p := Persona{First: "Ada", Last: "Lovelace", Email: "ada.lovelace@example.com"}
	if p.FullName() != "Ada Lovelace" {
		t.Fatalf("FullName = %q", p.FullName())
	}
	if p.Handle() != "ada.lovelace" {
		t.Fatalf("Handle = %q", p.Handle())
	}
	if (Persona{Email: "nodomain"}).Handle() != "nodomain" {
		t.Fatal("Handle without @ should return whole string")
	}
}

func TestMailboxBasics(t *testing.T) {
	g := newGen(2)
	owner := NewPersonas(rng.New(3), 1, "honeymail.example")[0]
	msgs := g.Mailbox(owner, 50, winStart, winEnd)
	if len(msgs) != 50 {
		t.Fatalf("got %d messages", len(msgs))
	}
	for i, m := range msgs {
		if m.Date.Before(winStart) || !m.Date.Before(winEnd) {
			t.Fatalf("message %d date %v outside window", i, m.Date)
		}
		if i > 0 && m.Date.Before(msgs[i-1].Date) {
			t.Fatal("mailbox not chronological")
		}
		if m.Subject == "" || m.Body == "" {
			t.Fatalf("message %d empty subject/body", i)
		}
		if m.From != owner.Email && m.To != owner.Email {
			t.Fatalf("message %d does not involve owner: %s -> %s", i, m.From, m.To)
		}
		if strings.Contains(m.Subject, "{") || strings.Contains(m.Body, "{") {
			t.Fatalf("unfilled slot in message %d: %q / %q", i, m.Subject, m.Body)
		}
	}
}

func TestMailboxMixesSentAndReceived(t *testing.T) {
	g := newGen(4)
	owner := NewPersonas(rng.New(5), 1, "honeymail.example")[0]
	msgs := g.Mailbox(owner, 200, winStart, winEnd)
	sent := 0
	for _, m := range msgs {
		if m.From == owner.Email {
			sent++
		}
	}
	if sent < 20 || sent > 80 {
		t.Fatalf("sent share = %d/200, want roughly a fifth", sent)
	}
}

func TestMailboxCompanySubstitution(t *testing.T) {
	g := newGen(6)
	owner := NewPersonas(rng.New(7), 1, "honeymail.example")[0]
	msgs := g.Mailbox(owner, 30, winStart, winEnd)
	found := false
	for _, m := range msgs {
		if strings.Contains(m.Body, "Enron") {
			t.Fatal("original company name leaked into corpus")
		}
		if strings.Contains(m.Body, g.Company()) {
			found = true
		}
	}
	if !found {
		t.Fatal("fictitious company name never appears")
	}
}

func TestMailboxDeterministicBySeed(t *testing.T) {
	owner := NewPersonas(rng.New(8), 1, "honeymail.example")[0]
	a := newGen(42).Mailbox(owner, 20, winStart, winEnd)
	b := newGen(42).Mailbox(owner, 20, winStart, winEnd)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at message %d", i)
		}
	}
}

func TestMailboxValidation(t *testing.T) {
	g := newGen(9)
	owner := NewPersonas(rng.New(10), 1, "honeymail.example")[0]
	if got := g.Mailbox(owner, 0, winStart, winEnd); got != nil {
		t.Fatal("n=0 should produce nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("end<=start did not panic")
		}
	}()
	g.Mailbox(owner, 1, winEnd, winStart)
}

func TestCorpusVocabularyProfile(t *testing.T) {
	// The corpus must be rich in the Table 2 right-column words so the
	// TF-IDF reproduction has the paper's baseline profile.
	g := newGen(11)
	owner := NewPersonas(rng.New(12), 1, "honeymail.example")[0]
	var tokens []string
	for _, m := range g.Mailbox(owner, 300, winStart, winEnd) {
		tokens = append(tokens, Tokenize(m.Subject, DefaultTokenizeOptions())...)
		tokens = append(tokens, Tokenize(m.Body, DefaultTokenizeOptions())...)
	}
	counts := TermCounts(tokens)
	for _, w := range []string{"transfer", "please", "original", "company", "would", "energy", "information", "about", "email", "power"} {
		if counts[w] == 0 {
			t.Errorf("corpus lacks expected frequent word %q", w)
		}
	}
	if counts["bitcoin"] != 0 {
		t.Error("seed corpus must not contain 'bitcoin' (it enters only via attacker drafts, §4.6)")
	}
}

func TestTokenizeMinLength(t *testing.T) {
	toks := Tokenize("The quick brown foxes jumped over lazy dogs", DefaultTokenizeOptions())
	for _, tok := range toks {
		if len(tok) < 5 {
			t.Fatalf("token %q shorter than 5 chars survived", tok)
		}
	}
	want := map[string]bool{"quick": true, "brown": true, "foxes": true, "jumped": true}
	for _, tok := range toks {
		delete(want, tok)
	}
	if len(want) != 0 {
		t.Fatalf("missing tokens: %v (got %v)", want, toks)
	}
}

func TestTokenizeLowercasesAndSplits(t *testing.T) {
	toks := Tokenize("Transfer,TRANSFER;transfer!", TokenizeOptions{MinLength: 1})
	if len(toks) != 3 {
		t.Fatalf("tokens = %v", toks)
	}
	for _, tok := range toks {
		if tok != "transfer" {
			t.Fatalf("token %q not lowercased", tok)
		}
	}
}

func TestTokenizeHeaderWordFilter(t *testing.T) {
	toks := Tokenize("delivered charset payment", DefaultTokenizeOptions())
	if len(toks) != 1 || toks[0] != "payment" {
		t.Fatalf("header filter failed: %v", toks)
	}
	kept := Tokenize("delivered charset payment", TokenizeOptions{MinLength: 5, KeepHeaderWords: true})
	if len(kept) != 3 {
		t.Fatalf("KeepHeaderWords failed: %v", kept)
	}
}

func TestTokenizeDropWords(t *testing.T) {
	opts := DefaultTokenizeOptions()
	opts.DropWords = map[string]bool{"secret": true}
	toks := Tokenize("secret payment secret", opts)
	if len(toks) != 1 || toks[0] != "payment" {
		t.Fatalf("DropWords failed: %v", toks)
	}
}

func TestTokenizeZeroMinLength(t *testing.T) {
	toks := Tokenize("a bc", TokenizeOptions{})
	if len(toks) != 2 {
		t.Fatalf("MinLength<=0 should default to 1: %v", toks)
	}
}

func TestTermCounts(t *testing.T) {
	c := TermCounts([]string{"x", "y", "x"})
	if c["x"] != 2 || c["y"] != 1 {
		t.Fatalf("TermCounts = %v", c)
	}
}

// Property: tokens never contain separators or uppercase letters and
// always respect the minimum length.
func TestPropertyTokenizeInvariants(t *testing.T) {
	opts := DefaultTokenizeOptions()
	f := func(text string) bool {
		for _, tok := range Tokenize(text, opts) {
			if len([]rune(tok)) < 5 {
				return false
			}
			if strings.ToLower(tok) != tok {
				return false
			}
			if strings.ContainsAny(tok, " \t\n.,;:!?(){}[]<>@") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: tokenizing a concatenation with a separator equals the
// concatenation of tokenizations.
func TestPropertyTokenizeConcat(t *testing.T) {
	opts := DefaultTokenizeOptions()
	f := func(a, b string) bool {
		joint := Tokenize(a+" "+b, opts)
		parts := append(Tokenize(a, opts), Tokenize(b, opts)...)
		if len(joint) != len(parts) {
			return false
		}
		for i := range joint {
			if joint[i] != parts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMailboxAppendReusesScratch guards the setup hot path's
// allocation discipline: a generator whose message buffer and offset
// scratch are warm must allocate strictly less per mailbox than a
// cold Mailbox call, and the reused path must stay byte-identical to
// the allocating one.
func TestMailboxAppendReusesScratch(t *testing.T) {
	owner := NewPersonas(rng.New(8), 1, "honeymail.example")[0]
	const n = 25

	fresh := newGen(42).Mailbox(owner, n, winStart, winEnd)
	warmGen := newGen(42)
	var msgs []Message
	msgs = warmGen.MailboxAppend(msgs[:0], owner, n, winStart, winEnd)
	if len(fresh) != len(msgs) {
		t.Fatalf("lengths differ: %d vs %d", len(fresh), len(msgs))
	}
	for i := range fresh {
		if fresh[i] != msgs[i] {
			t.Fatalf("append path diverged at message %d", i)
		}
	}

	coldAllocs := testing.AllocsPerRun(20, func() {
		newGen(42).Mailbox(owner, n, winStart, winEnd)
	})
	warmAllocs := testing.AllocsPerRun(20, func() {
		warmGen.Reseed(rng.New(42))
		msgs = warmGen.MailboxAppend(msgs[:0], owner, n, winStart, winEnd)
	})
	if warmAllocs >= coldAllocs {
		t.Fatalf("warm MailboxAppend allocates %.0f objects, cold Mailbox %.0f — scratch reuse lost",
			warmAllocs, coldAllocs)
	}
}

// TestGeneratorSplitShares: Split hands workers private scratch over
// shared immutable config; reseeding a split generator reproduces the
// parent's draws exactly.
func TestGeneratorSplitShares(t *testing.T) {
	owner := NewPersonas(rng.New(8), 1, "honeymail.example")[0]
	a := newGen(7).Mailbox(owner, 10, winStart, winEnd)
	parent := newGen(7)
	w := parent.Split(parent.src)
	b := w.Mailbox(owner, 10, winStart, winEnd)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("split generator diverged at message %d", i)
		}
	}
}

// TestPersonaAtMatchesPool: PersonaAt draws one persona from a
// dedicated stream with the same pools NewPersonasLocale defaults to,
// and SuffixEmail derives a deterministic collision-free address.
func TestPersonaAtMatchesPool(t *testing.T) {
	p := PersonaAt(rng.New(5), Locale{})
	if p.First == "" || p.Last == "" || p.Email == "" {
		t.Fatalf("incomplete persona %+v", p)
	}
	q := PersonaAt(rng.New(5), Locale{})
	if p != q {
		t.Fatalf("same stream diverged: %+v vs %+v", p, q)
	}
	s := p.SuffixEmail(3)
	if s == p.Email || !strings.Contains(s, "3@") {
		t.Fatalf("suffix email %q not distinct/deterministic for %q", s, p.Email)
	}
}
