package webmail

import (
	"strings"
	"testing"

	"repro/internal/rng"
)

// ContainsFold exposes the ASCII search kernel to this package's
// external benchmarks.
var ContainsFold = asciiContainsFold

// containsFoldReference is the byte-at-a-time kernel the word scan
// replaced, kept as the oracle: every start position, first byte then
// the rest, each haystack byte lowered before the compare.
func containsFoldReference(s, term string) bool {
	n := len(term)
	if n == 0 {
		return true
	}
	c0 := term[0]
	for i := 0; i+n <= len(s); i++ {
		if lowerASCIIByte(s[i]) != c0 {
			continue
		}
		j := 1
		for j < n && lowerASCIIByte(s[i+j]) == term[j] {
			j++
		}
		if j == n {
			return true
		}
	}
	return false
}

// foldPairs are non-letters that differ only in bit 0x20, the bit the
// word scan ORs in for letters: a scan that folded them would merge
// the two. The first six are every such pair in 0x40-0x7f; NUL/space
// and '1'/0x11 stand in for the pairs below 0x40.
var foldPairs = [][2]byte{
	{'@', '`'}, {'[', '{'}, {'\\', '|'}, {']', '}'}, {'^', '~'}, {'_', 0x7f},
	{0, ' '}, {'1', 0x11},
}

type foldCase struct {
	s, term string
	want    bool
}

// containsFoldCases is the boundary table. The word scan covers start
// positions in steps of eight and finishes with one word at
// len(tail)-8 that overlaps the one before it, so with a 24-byte
// haystack and a 4-byte term (21 start positions) the words cover
// positions 0-7, 8-15 and 13-20. Only a haystack with fewer than eight
// start positions takes the byte loop.
func containsFoldCases() []foldCase {
	cases := []foldCase{
		// Term lengths 1, 2, 8 and 9, in the word path and the tail.
		{strings.Repeat(".", 30) + "X", "x", true},
		{"X" + strings.Repeat(".", 30), "x", true},
		{strings.Repeat(".", 30), "x", false},
		{strings.Repeat(".", 12) + "Qz" + strings.Repeat(".", 12), "qz", true},
		{strings.Repeat(".", 24) + "qZ", "qz", true},
		{strings.Repeat("q.z", 10), "qz", false},
		{strings.Repeat(".", 9) + "PASSWORD" + strings.Repeat(".", 9), "password", true},
		{strings.Repeat(".", 9) + "PASSWORd", "password", true},
		{strings.Repeat(".", 9) + "PASSWOR" + strings.Repeat(".", 9), "password", false},
		{strings.Repeat(".", 9) + "StateMent" + strings.Repeat(".", 9), "statement", true},
		{strings.Repeat(".", 9) + "statement", "statement", true},
		{"s" + strings.Repeat(".", 7) + "t" + strings.Repeat(".", 20), "statement", false},
		// First and last bytes agree, a middle byte does not.
		{strings.Repeat(".", 9) + "stateMINT" + strings.Repeat(".", 9), "statement", false},
		{strings.Repeat("wxre.", 6), "wire", false},
		// The last lane of the second word, then the overlapping last
		// word.
		{strings.Repeat(".", 15) + "WiRe" + ".....", "wire", true},
		{strings.Repeat(".", 16) + "WiRe" + "....", "wire", true},
		{strings.Repeat(".", 20) + "WIRE", "wire", true},
		{strings.Repeat(".", 20) + "WIR", "wire", false},
		// A lane whose anchors miss by bit 0x01, just above a lane whose
		// anchors match: a borrowing zero test would make it a
		// candidate, and its middle bytes match.
		{"a`aa" + strings.Repeat(".", 8), "aaa", false},
		{"5455" + strings.Repeat(".", 8), "555", false},
		// Several candidates in one word, the match the last of them.
		{"bAnbBanBANk", "bank", true},
		{"bAnbBanBANbBANK.....", "bank", true},
		// Haystacks shorter than a word, terms longer than the haystack.
		{"", "a", false},
		{"", "", true},
		{"abc", "", true},
		{"AbC", "bc", true},
		{"Short", "short", true},
		{"Short", "shorts", false},
		{"abc", "abcd", false},
		{strings.Repeat("a", 8), strings.Repeat("a", 9), false},
		{strings.Repeat("A", 9), strings.Repeat("a", 9), true},
		// Upper, lower and mixed case.
		{"Your PAYMENT is due", "payment", true},
		{"your payment is due", "payment", true},
		{"Your PayMent is due", "payment", true},
		{"Your PayMent is due", "pay ment", false},
		// Digits and NUL.
		{"Q3 2015 budget, 2016 forecast", "2016", true},
		{"Q3 2015 budget, 2016 forecast", "2017", false},
		{"id\x00\x00key\x00" + strings.Repeat(".", 20), "\x00key\x00", true},
		{"id  key " + strings.Repeat(".", 20), "\x00key\x00", false},
		{strings.Repeat(".", 20) + "\x00", "\x00", true},
	}
	// Start positions 8 <= len(tail) < 16: a match only in the last
	// 1-7, which only the overlapping last word sees, and the same
	// haystack with the match broken. Then len(tail) exactly 8 and 16,
	// where the last word is a whole word of its own.
	for starts := 9; starts < 16; starts++ {
		for p := 8; p < starts; p++ {
			pad := strings.Repeat(".", starts-1-p)
			cases = append(cases,
				foldCase{strings.Repeat(".", p) + "WiRe" + pad, "wire", true},
				foldCase{strings.Repeat(".", p) + "WiRx" + pad, "wire", false},
				foldCase{strings.Repeat(".", p) + "xIRE" + pad, "wire", false},
			)
		}
	}
	for _, starts := range []int{8, 16} {
		for _, p := range []int{0, starts/2 - 1, starts - 1} {
			pad := strings.Repeat(".", starts-1-p)
			cases = append(cases,
				foldCase{strings.Repeat(".", p) + "BaNk" + pad, "bank", true},
				foldCase{strings.Repeat(".", p) + "BaNc" + pad, "bank", false},
			)
		}
	}
	// Each pair's two bytes as first, middle and last term byte, in a
	// haystack long enough for the word path and in a short one: the
	// other member of the pair never matches, the same byte does.
	for _, p := range foldPairs {
		for _, b := range [][2]byte{{p[0], p[1]}, {p[1], p[0]}} {
			same, other := string(b[0]), string(b[1])
			for _, pad := range []string{strings.Repeat(".", 17), ""} {
				cases = append(cases,
					foldCase{pad + other + pad, same, false},
					foldCase{pad + same + pad, same, true},
					foldCase{pad + other + "ab" + pad, same + "ab", false},
					foldCase{pad + "A" + other + "B" + pad, "a" + same + "b", false},
					foldCase{pad + "A" + same + "B" + pad, "a" + same + "b", true},
					foldCase{pad + "ab" + other + pad, "ab" + same, false},
				)
			}
		}
	}
	return cases
}

func TestContainsFoldBoundaries(t *testing.T) {
	for _, c := range containsFoldCases() {
		if c.term != strings.ToLower(c.term) {
			t.Fatalf("table term %q is not lowercase", c.term)
		}
		if ref := strings.Contains(strings.ToLower(c.s), c.term); ref != c.want {
			t.Fatalf("table row (%q, %q) says %v, strings.Contains says %v", c.s, c.term, c.want, ref)
		}
		if got := asciiContainsFold(c.s, c.term); got != c.want {
			t.Errorf("asciiContainsFold(%q, %q) = %v, want %v", c.s, c.term, got, c.want)
		}
		if got := containsFoldReference(c.s, c.term); got != c.want {
			t.Errorf("containsFoldReference(%q, %q) = %v, want %v", c.s, c.term, got, c.want)
		}
	}
}

// TestIsASCIIMatchesByteLoop checks the word-at-a-time isASCII
// against the byte loop for every length up to 24, clean and with one
// high byte at each offset 0-16.
func TestIsASCIIMatchesByteLoop(t *testing.T) {
	byteLoop := func(s string) bool {
		for i := 0; i < len(s); i++ {
			if s[i] >= 0x80 {
				return false
			}
		}
		return true
	}
	for n := 0; n <= 24; n++ {
		clean := []byte(strings.Repeat("\x7fAz", 9)[:n])
		if !isASCII(string(clean)) {
			t.Fatalf("isASCII(%q) = false", clean)
		}
		for off := 0; off <= 16 && off < n; off++ {
			for _, high := range []byte{0x80, 0xc3, 0xff} {
				b := append([]byte(nil), clean...)
				b[off] = high
				if got, want := isASCII(string(b)), byteLoop(string(b)); got != want {
					t.Fatalf("isASCII(%q) = %v, byte loop %v", b, got, want)
				}
			}
		}
	}
}

// TestContainsFoldMatchesReference draws seeded random haystacks and
// lowered terms over an alphabet of mixed-case letters, digits, NUL,
// DEL and the 0x20 pairs, planting a case-mangled, sometimes
// corrupted copy of the term in most haystacks so that matches and
// near misses are common. Haystacks run up to 49 bytes, so every
// lane of the word path and every tail length is hit.
func TestContainsFoldMatchesReference(t *testing.T) {
	alphabet := []byte("aAbBzZwWiIrReE019\x00\x7f .")
	for _, p := range foldPairs {
		alphabet = append(alphabet, p[0], p[1])
	}
	src := rng.New(17)
	draw := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[src.Intn(len(alphabet))]
		}
		return b
	}
	matches := 0
	const cases = 300_000
	for k := 0; k < cases; k++ {
		term := strings.ToLower(string(draw(1 + src.Intn(10))))
		hay := draw(src.Intn(40))
		if src.Bool(0.7) {
			planted := []byte(term)
			for i, c := range planted {
				if 'a' <= c && c <= 'z' && src.Bool(0.5) {
					planted[i] = c - ('a' - 'A')
				}
			}
			if src.Bool(0.3) {
				planted[src.Intn(len(planted))] ^= 0x20
			}
			at := src.Intn(len(hay) + 1)
			hay = append(hay[:at], append(planted, hay[at:]...)...)
		}
		s := string(hay)
		want := containsFoldReference(s, term)
		if got := asciiContainsFold(s, term); got != want {
			t.Fatalf("asciiContainsFold(%q, %q) = %v, reference = %v", s, term, got, want)
		}
		if ref := strings.Contains(strings.ToLower(s), term); ref != want {
			t.Fatalf("reference(%q, %q) = %v, strings.Contains = %v", s, term, want, ref)
		}
		if want {
			matches++
		}
	}
	if matches < cases/4 || matches > cases*3/4 {
		t.Fatalf("%d of %d cases match; the draw no longer balances hits and misses", matches, cases)
	}
}

// FuzzContainsFold checks the kernel against its definition,
// strings.Contains over the lowered haystack, for ASCII haystacks and
// lowered terms (the inputs matchTerms hands it).
func FuzzContainsFold(f *testing.F) {
	f.Fuzz(func(t *testing.T, s, term string) {
		term = strings.ToLower(term)
		if !isASCII(s) || !isASCII(term) {
			t.Skip()
		}
		if got, want := asciiContainsFold(s, term), strings.Contains(strings.ToLower(s), term); got != want {
			t.Fatalf("asciiContainsFold(%q, %q) = %v, want %v", s, term, got, want)
		}
	})
}
