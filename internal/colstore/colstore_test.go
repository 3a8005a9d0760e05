package colstore

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// TestArenaCopy: copies are value-equal to the input, stable across
// later appends (a full block is abandoned, never reallocated under
// returned strings), and independent of the caller's bytes.
func TestArenaCopy(t *testing.T) {
	var a Arena
	if got := a.Copy(""); got != "" {
		t.Fatalf("Copy(\"\") = %q", got)
	}

	src := []byte("mutable source")
	first := a.Copy(string(src))
	var copies []string
	var want []string
	for i := 0; i < 10000; i++ {
		s := fmt.Sprintf("value-%d", i)
		copies = append(copies, a.Copy(s))
		want = append(want, s)
	}
	if first != "mutable source" {
		t.Fatalf("first copy drifted to %q after later appends", first)
	}
	for i := range copies {
		if copies[i] != want[i] {
			t.Fatalf("copy %d drifted to %q", i, copies[i])
		}
	}
}

// TestArenaOversized: strings too large to pack get their own
// allocation and stay intact, without abandoning the current block.
func TestArenaOversized(t *testing.T) {
	var a Arena
	small := a.Copy("resident")
	big := a.Copy(strings.Repeat("x", arenaBlock))
	after := a.Copy("after")
	if len(big) != arenaBlock || strings.Trim(big, "x") != "" {
		t.Fatal("oversized copy corrupted")
	}
	if small != "resident" || after != "after" {
		t.Fatal("small copies disturbed by an oversized one")
	}
}

// TestInternerDedups: equal strings intern to the identical canonical
// copy, distinct strings stay distinct, and the canonical copies
// survive arbitrarily many later interns.
func TestInternerDedups(t *testing.T) {
	var in Interner
	if got := in.Intern(""); got != "" {
		t.Fatalf("Intern(\"\") = %q", got)
	}
	ua := in.Intern("Mozilla/5.0 (X11; Linux x86_64)")
	cities := make([]string, 100)
	for i := 0; i < 1000; i++ {
		c := in.Intern(fmt.Sprintf("city-%d", i%100))
		if i < len(cities) {
			cities[i] = c
		} else if unsafeStringData(c) != unsafeStringData(cities[i%100]) {
			t.Fatalf("city-%d interned to a second copy", i%100)
		}
	}
	again := in.Intern("Mozilla/5.0 (X11; " + "Linux x86_64)")
	if ua != again {
		t.Fatal("equal strings interned to different values")
	}
	// Canonical means pointer-identical, not merely equal: the second
	// intern must return the same arena bytes, allocating nothing.
	if unsafeStringData(ua) != unsafeStringData(again) {
		t.Fatal("re-interning an equal string produced a second copy")
	}
}

// TestInternSteadyStateAllocs: after first occurrence, Intern is
// allocation-free — the property the hot scrape/access paths rely on.
func TestInternSteadyStateAllocs(t *testing.T) {
	var in Interner
	vals := []string{"London", "Pontiac", "Lagos", "tor-exit", "proxy"}
	for _, v := range vals {
		in.Intern(v)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, v := range vals {
			in.Intern(v)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Intern allocates %v per run, want 0", allocs)
	}
}

// TestInternerCopyNoDedup: Copy places bytes without touching the
// canonical map — two copies of one value are separate arena strings.
func TestInternerCopyNoDedup(t *testing.T) {
	var in Interner
	c1 := in.Copy("cookie-abc123")
	c2 := in.Copy("cookie-abc123")
	if c1 != c2 {
		t.Fatal("copies not value-equal")
	}
	if unsafeStringData(c1) == unsafeStringData(c2) {
		t.Fatal("Copy deduplicated; cookies must not pay a map probe")
	}
	if p := unsafeStringData(in.Intern("cookie-abc123")); p == unsafeStringData(c1) || p == unsafeStringData(c2) {
		t.Fatal("Copy populated the canonical map")
	}
}

// unsafeStringData returns the string's backing pointer for identity
// checks (comparing interning behaviour, not contents).
func unsafeStringData(s string) uintptr {
	if len(s) == 0 {
		return 0
	}
	return uintptr(unsafe.Pointer(unsafe.StringData(s)))
}
