// Package colstore provides the small building blocks shared by the
// struct-of-arrays ("columnar") hot-state stores in webmail, monitor
// and analysis: an append-only string arena and a deduplicating
// interner built on it.
//
// The row-per-struct layout the engine started with allocates one
// heap object per access row, per observation and per journal entry,
// and retains a private copy of every cookie, user-agent and geo
// string. At fleet scale (the ROADMAP's million-account target) that
// is tens of millions of small objects the garbage collector must
// trace on every cycle. The columnar stores keep each field in a
// parallel typed slice instead — one allocation per column growth,
// zero per row — and route all string fields through an Arena, so a
// platform's worth of cookies lives in a handful of 16KiB blocks
// rather than one allocation each.
package colstore

import "unsafe"

// arenaBlock is the allocation unit: string bytes are packed into
// blocks of this size, so per-string allocation cost is amortized to
// one make per ~16KiB of text.
const arenaBlock = 1 << 14

// Arena packs small immutable strings into large append-only byte
// blocks. Strings returned by Copy alias arena memory and stay valid
// for the arena's lifetime: a full block is abandoned (not grown), so
// previously returned strings keep pinning the block they live in.
//
// Arena is not safe for concurrent use; callers guard it with the
// lock that guards the columns it feeds (the webmail Service lock).
type Arena struct {
	block []byte
	// Bytes counts total packed bytes, for introspection/tests.
	bytes int
}

// Copy returns a stable copy of s backed by arena memory.
func (a *Arena) Copy(s string) string { return arenaCopy(a, s) }

// CopyBytes is Copy for text rendered into a reused byte buffer: the
// bytes go straight into the arena, with no intermediate string.
func (a *Arena) CopyBytes(b []byte) string { return arenaCopy(a, b) }

func arenaCopy[T string | []byte](a *Arena, s T) string {
	if len(s) == 0 {
		return ""
	}
	a.bytes += len(s)
	if len(s) > arenaBlock/4 {
		// Oversized strings get their own allocation; packing them
		// would waste most of a fresh block.
		b := make([]byte, len(s))
		copy(b, s)
		return unsafe.String(&b[0], len(b))
	}
	if len(a.block)+len(s) > cap(a.block) {
		a.block = make([]byte, 0, arenaBlock)
	}
	off := len(a.block)
	a.block = append(a.block, s...)
	b := a.block[off : off+len(s) : off+len(s)]
	return unsafe.String(&b[0], len(b))
}

// Bytes reports the total string bytes the arena has packed.
func (a *Arena) Bytes() int { return a.bytes }

// Interner deduplicates strings drawn from a low-cardinality set
// (user agents, city/country names, IPs) into arena-backed canonical
// copies. After the first occurrence of each distinct value, Intern
// allocates nothing.
type Interner struct {
	arena Arena
	canon map[string]string
}

// Intern returns the canonical arena-backed copy of s.
func (in *Interner) Intern(s string) string {
	if s == "" {
		return ""
	}
	if c, ok := in.canon[s]; ok {
		return c
	}
	if in.canon == nil {
		in.canon = make(map[string]string)
	}
	c := in.arena.Copy(s)
	in.canon[c] = c
	return c
}

// Copy places s in the interner's arena without deduplication — for
// unique-by-construction strings (cookies) where a map probe per row
// would never hit.
func (in *Interner) Copy(s string) string { return in.arena.Copy(s) }

// Unique reports how many distinct strings the interner holds.
func (in *Interner) Unique() int { return len(in.canon) }
