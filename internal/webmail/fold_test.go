package webmail

import (
	"strings"
	"testing"
	"unsafe"
)

// TestMatchTermsFoldEquivalence pins the fold scan to the reference
// semantics it replaced: strings.Contains over a ToLower-baked
// subject+"\n"+body haystack, for every term of a Fields-split
// lowered query. Cases cover ASCII folding, term-at-boundary,
// multi-term AND, and the non-ASCII fallback path.
func TestMatchTermsFoldEquivalence(t *testing.T) {
	cases := []struct {
		subject, body, query string
	}{
		{"Wire TRANSFER", "Payment Details inside", "wire transfer"},
		{"Wire TRANSFER", "Payment Details inside", "WIRE details"},
		{"Wire TRANSFER", "Payment Details inside", "transfer payment"},
		{"Wire TRANSFER", "Payment Details inside", "missing"},
		{"", "", "anything"},
		{"edge", "", "edge"},
		{"", "tail", "tail"},
		{"abcd", "efgh", "cd ef"},                       // neither field alone holds "cdef"
		{"abAB", "zzzz", "abab"},                        // fold inside one field
		{"Réunion notes", "café plans", "réunion café"}, // non-ASCII fallback
		{"Réunion notes", "café plans", "notes plans"},  // ASCII terms, non-ASCII text
		{"plain text", "çedille", "çedille"},
	}
	for _, c := range cases {
		terms := strings.Fields(strings.ToLower(c.query))
		hay := strings.ToLower(c.subject + "\n" + c.body)
		want := true
		for _, term := range terms {
			if !strings.Contains(hay, term) {
				want = false
			}
		}
		// Twice per message: the first call learns the ASCII answer,
		// the second runs on the cached one.
		mt := &msgText{subject: c.subject, body: c.body}
		for _, pass := range []string{"cold", "cached"} {
			if got := mt.matchTerms(terms); got != want {
				t.Errorf("%s matchTerms(%q/%q, %q) = %v, reference = %v", pass, c.subject, c.body, c.query, got, want)
			}
			if mt.ascii == textUnknown {
				t.Errorf("%s matchTerms(%q/%q) left the ASCII answer unknown", pass, c.subject, c.body)
			}
		}
	}
	if (&msgText{subject: "x", body: "y"}).matchTerms(nil) {
		t.Error("empty term list must not match")
	}
}

// TestMatchTermsASCIIAllocFree guards the fleet-memory contract: the
// ASCII fast path — the entire embedded corpus — retains nothing and
// allocates nothing per match, unlike the old baked-haystack cache
// that held a second lowered copy of every searched message.
func TestMatchTermsASCIIAllocFree(t *testing.T) {
	mt := &msgText{
		subject: "Quarterly BUDGET review",
		body:    "The numbers for Q3 are attached; wire the TRANSFER by Friday.",
	}
	terms := []string{"budget", "transfer", "friday"}
	if !mt.matchTerms(terms) {
		t.Fatal("expected match")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if !mt.matchTerms(terms) {
			t.Fatal("expected match")
		}
	})
	if allocs != 0 {
		t.Fatalf("ASCII matchTerms allocated %.1f per run, want 0", allocs)
	}
}

// A draft written with the Kelvin sign (U+212A) matches "key": the
// non-ASCII text takes the Unicode fallback, which lowers the sign to
// "k". The byte-wise ASCII path would miss it, and an ASCII draft
// created first must not leave its verdict on the next one.
func TestSearchFindsKelvinSignDraft(t *testing.T) {
	se := newFixture(t, Config{}).login(t)
	if _, err := se.CreateDraft("x@y", "note", "lock"); err != nil {
		t.Fatal(err)
	}
	if got, _ := se.Search("key"); len(got) != 0 {
		t.Fatalf("search of the ASCII draft matched %d messages", len(got))
	}
	id, err := se.CreateDraft("x@y", "note", "\u212Aey")
	if err != nil {
		t.Fatal(err)
	}
	got, err := se.Search("key")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != id {
		t.Fatalf("search for key = %+v, want the Kelvin-sign draft", got)
	}
}

// The hot per-account and per-message structs stay inside their Go
// allocation size classes: an account over 768 bytes moves every
// mailbox to the 896-byte class, and a msgText over 96 bytes to 112.
func TestHotStructSizes(t *testing.T) {
	if got := unsafe.Sizeof(account{}); got > 760 {
		t.Errorf("account is %d bytes, want <= 760 (768-byte class less the malloc header)", got)
	}
	if got := unsafe.Sizeof(msgText{}); got > 96 {
		t.Errorf("msgText is %d bytes, want <= 96", got)
	}
}
