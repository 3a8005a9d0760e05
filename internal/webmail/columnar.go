package webmail

import (
	"math/bits"
	"strings"
	"time"

	"repro/internal/colstore"
	"repro/internal/netsim"
)

// This file holds the struct-of-arrays storage behind the per-account
// hot state. The service's public API is unchanged — Session and
// Service still traffic in Access, Message and Event values — but
// internally each account keeps its access rows, message metadata and
// journal as parallel typed columns instead of slices of heap-boxed
// structs. A million-account fleet then carries one slice header per
// column instead of one GC-traced object per row, and every string
// field (cookies, user agents, geo names) lives in the Service's
// arena-backed string table.

// accessTable is the columnar activity page: row i describes one
// cookie's access row. order is the permutation sorted by
// (firstNS, cookie) — the page's display order; the clock is
// monotonic, so new rows tail-insert with at most a few swaps inside
// a same-instant tie block.
type accessTable struct {
	cookie   []string
	firstNS  []int64
	lastNS   []int64
	ip       []string
	city     []string
	country  []string
	lat      []float64
	lon      []float64
	hasPoint []bool
	ua       []string
	browser  []netsim.Browser
	device   []netsim.DeviceClass
	visits   []int32
	rev      []uint64

	byCookie map[string]int32
	order    []int32
}

func (t *accessTable) len() int { return len(t.cookie) }

func (t *accessTable) lookup(cookie string) (int32, bool) {
	i, ok := t.byCookie[cookie]
	return i, ok
}

// add appends a new access row, interning its strings into the
// Service's table, and splices it into display order. The cookie is
// unique by construction so it takes the no-dedup arena path; user
// agents and geo names deduplicate across the whole platform.
func (t *accessTable) add(sym *colstore.Interner, cookie string, firstNS int64, ep netsim.Endpoint, browser netsim.Browser, device netsim.DeviceClass) int32 {
	i := int32(len(t.cookie))
	t.cookie = append(t.cookie, sym.Copy(cookie))
	t.firstNS = append(t.firstNS, firstNS)
	t.lastNS = append(t.lastNS, firstNS)
	t.ip = append(t.ip, sym.Intern(ep.Addr.String()))
	t.city = append(t.city, sym.Intern(ep.City))
	t.country = append(t.country, sym.Intern(ep.Country))
	t.lat = append(t.lat, ep.Point.Lat)
	t.lon = append(t.lon, ep.Point.Lon)
	t.hasPoint = append(t.hasPoint, ep.HasLocation())
	t.ua = append(t.ua, sym.Intern(ep.UserAgent))
	t.browser = append(t.browser, browser)
	t.device = append(t.device, device)
	t.visits = append(t.visits, 0)
	t.rev = append(t.rev, 0)
	if t.byCookie == nil {
		t.byCookie = make(map[string]int32)
	}
	t.byCookie[t.cookie[i]] = i

	// Tail insert into display order; ties on firstNS order by cookie.
	t.order = append(t.order, i)
	for j := len(t.order) - 1; j > 0; j-- {
		p := t.order[j-1]
		if t.firstNS[p] < firstNS ||
			(t.firstNS[p] == firstNS && t.cookie[p] < t.cookie[i]) {
			break
		}
		t.order[j-1], t.order[j] = t.order[j], t.order[j-1]
	}
	return i
}

// materialize rebuilds the public Access value for row i. Times are
// reconstructed with time.Unix(0, ns).UTC(), the same canonical
// representation the simulation clock produces, so struct equality
// against clock-stamped values (the monitor's delta diff relies on
// it) is preserved.
func (t *accessTable) materialize(i int32) Access {
	return Access{
		Cookie:    t.cookie[i],
		First:     time.Unix(0, t.firstNS[i]).UTC(),
		Last:      time.Unix(0, t.lastNS[i]).UTC(),
		IP:        t.ip[i],
		City:      t.city[i],
		Country:   t.country[i],
		Lat:       t.lat[i],
		Lon:       t.lon[i],
		HasPoint:  t.hasPoint[i],
		UserAgent: t.ua[i],
		Browser:   t.browser[i],
		Device:    t.device[i],
		Visits:    int(t.visits[i]),
		rev:       t.rev[i],
	}
}

// msgText is the out-of-line payload of one message: the string
// fields search and listing need, kept behind one pointer so the
// per-message metadata columns stay compact for snapshot/count scans
// that never touch text.
type msgText struct {
	from, to, subject, body string
	labels                  []string
	ascii                   textClass // see allASCII; guarded by the Service lock
}

// textClass caches whether a message's text is pure ASCII; the zero
// value means not yet known.
type textClass uint8

const (
	textUnknown textClass = iota
	textASCII
	textUnicode
)

// allASCII reports whether subject and body are pure ASCII, scanning
// them once and caching the answer. The scan is deferred to the first
// search instead of running at Seed or restore time: most seeded
// messages are never searched, and a fleet-wide pass would land on
// set-up. Stored text is never rewritten, so the answer holds for the
// message's lifetime. Callers hold the Service lock.
func (t *msgText) allASCII() bool {
	if t.ascii == textUnknown {
		t.ascii = textUnicode
		if isASCII(t.subject) && isASCII(t.body) {
			t.ascii = textASCII
		}
	}
	return t.ascii == textASCII
}

// matchTerms reports whether the message matches every pre-lowered,
// whitespace-free term (Search feeds it strings.Fields output).
//
// The scan folds case on the fly instead of caching a lowered copy of
// subject+body: the old lazily-baked haystacks were a second ~190MB
// of retained heap at scale=100, kept alive only to make repeat
// searches marginally cheaper. ASCII text — the entire embedded
// corpus — goes through asciiContainsFold, which tests eight
// positions per step and allocates and keeps nothing; anything else
// falls back to a transient strings.ToLower of the exact haystack the
// cache used to hold, so match results are byte-identical either way.
// Terms contain no whitespace, so a match can never span the
// subject/body joiner and the two fields can be scanned independently.
func (t *msgText) matchTerms(terms []string) bool {
	if len(terms) == 0 {
		return false
	}
	ascii := t.allASCII()
	hay := "" // transient Unicode fallback, built at most once
	for _, term := range terms {
		if ascii && isASCII(term) {
			if !asciiContainsFold(t.subject, term) && !asciiContainsFold(t.body, term) {
				return false
			}
			continue
		}
		if hay == "" {
			hay = strings.ToLower(t.subject + "\n" + t.body)
		}
		if !strings.Contains(hay, term) {
			return false
		}
	}
	return true
}

// isASCII reports whether s has no byte at or above 0x80. It ORs
// eight bytes per step together and tests the high bits once; a
// string of eight bytes or more finishes with one overlapping word at
// len(s)-8 instead of a byte loop.
func isASCII(s string) bool {
	if len(s) < 8 {
		for i := 0; i < len(s); i++ {
			if s[i] >= 0x80 {
				return false
			}
		}
		return true
	}
	var high uint64
	for i := 0; i+8 <= len(s); i += 8 {
		high |= load64(s, i)
	}
	high |= load64(s, len(s)-8)
	return high&lanes80 == 0
}

func lowerASCIIByte(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

// asciiContainsFold is strings.Contains(strings.ToLower(s), term) for
// ASCII s, without the allocation. The term must already be lowercase,
// as Search guarantees by lowering the query before splitting it: an
// uppercase term byte is compared exactly, so it would match the
// uppercase haystack byte the reference lowers away.
//
// The scan tests eight start positions per step. It loads two
// little-endian words, one at i under the term's first byte and one
// at i+len(term)-1 under its last, and folds each toward its anchor
// byte: OR 0x20 into every lane when the anchor is a lowercase letter,
// compare exactly otherwise. XOR with the broadcast anchor leaves a
// lane zero where that position's anchor matches. A lane is zero in
// both words exactly when it is zero in their OR, so one exact
// zero-lane mask of the OR (the AND of the two words' masks) holds
// the positions whose first and last bytes both match. Only those
// compare their middle bytes, one at a time. When the start positions
// do not fill whole words, one last word at len(tail)-8 overlaps the
// one before it: re-testing a position cannot change the answer, so
// only a haystack with fewer than eight start positions takes the
// byte loop. Nothing is kept between calls.
func asciiContainsFold(s, term string) bool {
	n := len(term)
	if n == 0 {
		return true
	}
	if n > len(s) {
		return false
	}
	fold0, want0 := anchorLanes(term[0])
	fold1, want1 := anchorLanes(term[n-1])
	// With the term at position i, s[i] is under its first byte and
	// tail[i] under its last; len(tail) counts the start positions.
	tail := s[n-1:]
	i := 0
	for ; i+8 <= len(tail); i += 8 {
		x0 := (load64(s, i) | fold0) ^ want0
		x1 := (load64(tail, i) | fold1) ^ want1
		hit := zeroLanes(x0 | x1)
		for ; hit != 0; hit &= hit - 1 {
			p := i + bits.TrailingZeros64(hit)>>3
			if foldsFrom(s[p:p+n-1], term[:n-1], 1) {
				return true
			}
		}
	}
	if i == len(tail) {
		return false
	}
	if i > 0 {
		// Fewer than eight start positions are left: test the last
		// eight as one more word, overlapping the one before.
		i = len(tail) - 8
		x0 := (load64(s, i) | fold0) ^ want0
		x1 := (load64(tail, i) | fold1) ^ want1
		for hit := zeroLanes(x0 | x1); hit != 0; hit &= hit - 1 {
			p := i + bits.TrailingZeros64(hit)>>3
			if foldsFrom(s[p:p+n-1], term[:n-1], 1) {
				return true
			}
		}
		return false
	}
	for ; i < len(tail); i++ {
		if foldsFrom(s[i:i+n], term, 0) {
			return true
		}
	}
	return false
}

// Byte-lane constants of the word scan.
const (
	lanes01 = 0x0101010101010101
	lanes20 = 0x2020202020202020
	lanes7f = 0x7f7f7f7f7f7f7f7f
	lanes80 = 0x8080808080808080
)

// anchorLanes returns the fold mask and the broadcast byte that test
// eight haystack bytes against the term byte c at once.
func anchorLanes(c byte) (fold, want uint64) {
	if 'a' <= c && c <= 'z' {
		fold = lanes20
	}
	return fold, lanes01 * uint64(c)
}

// zeroLanes sets the top bit of every byte lane of x that is zero and
// clears everything else. Each lane's 7-bit add stays inside its lane,
// so unlike (x-0x01..)&^x&0x80.. no borrow marks the lane above a
// zero byte.
func zeroLanes(x uint64) uint64 {
	return ^(((x & lanes7f) + lanes7f) | x | lanes7f)
}

// load64 reads s[i:i+8] as a little-endian word; the compiler merges
// the eight byte loads into one.
func load64(s string, i int) uint64 {
	s = s[i : i+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// foldsFrom reports whether s, lowered, equals term from byte j on;
// len(s) == len(term).
func foldsFrom(s, term string, j int) bool {
	for ; j < len(term); j++ {
		if lowerASCIIByte(s[j]) != term[j] {
			return false
		}
	}
	return true
}

// msgStore is the columnar mailbox: row i holds MessageID(i+1). Rows
// are append-only — a message can move to Trash but never leaves the
// store — so the dense layout gives ascending-ID iteration for free
// and Snapshot and ExportAccount need no sort.
type msgStore struct {
	folder  []Folder
	read    []bool
	starred []bool
	dateNS  []int64
	text    []*msgText
}

func (ms *msgStore) rows() int { return len(ms.text) }

// index maps a message ID to its row, or -1 when absent.
func (ms *msgStore) index(id MessageID) int {
	i := int(id) - 1
	if i < 0 || i >= len(ms.text) {
		return -1
	}
	return i
}

// append adds the next sequential message (id == rows()+1, the hot
// path for Seed/Send/Deliver) and returns its row.
func (ms *msgStore) append(folder Folder, text *msgText, dateNS int64, read bool) int {
	i := len(ms.text)
	ms.folder = append(ms.folder, folder)
	ms.read = append(ms.read, read)
	ms.starred = append(ms.starred, false)
	ms.dateNS = append(ms.dateNS, dateNS)
	ms.text = append(ms.text, text)
	return i
}

// materialize rebuilds the public Message value for row i.
func (ms *msgStore) materialize(i int) Message {
	t := ms.text[i]
	m := Message{
		ID:      MessageID(i + 1),
		Folder:  ms.folder[i],
		From:    t.from,
		To:      t.to,
		Subject: t.subject,
		Body:    t.body,
		Date:    time.Unix(0, ms.dateNS[i]).UTC(),
		Read:    ms.read[i],
		Starred: ms.starred[i],
	}
	if len(t.labels) > 0 {
		m.Labels = append([]string(nil), t.labels...)
	}
	return m
}

// journalTable is the columnar ground-truth journal. The account
// column is implicit (every entry belongs to the owning account) and
// times are bare nanoseconds — an Event row costs 8+8+16+8+16 bytes
// of column data instead of a 120-byte boxed struct.
type journalTable struct {
	timeNS  []int64
	kind    []EventKind
	cookie  []string
	message []MessageID
	detail  []string
}

func (j *journalTable) len() int { return len(j.kind) }

// append records one event; the cookie is interned (the same handful
// of cookies repeats across thousands of events).
func (j *journalTable) append(sym *colstore.Interner, e Event) {
	j.timeNS = append(j.timeNS, e.Time.UnixNano())
	j.kind = append(j.kind, e.Kind)
	j.cookie = append(j.cookie, sym.Intern(e.Cookie))
	j.message = append(j.message, e.Message)
	j.detail = append(j.detail, e.Detail)
}

// materialize rebuilds the public Event value for row i.
func (j *journalTable) materialize(i int, account string) Event {
	return Event{
		Time:    time.Unix(0, j.timeNS[i]).UTC(),
		Kind:    j.kind[i],
		Account: account,
		Cookie:  j.cookie[i],
		Message: j.message[i],
		Detail:  j.detail[i],
	}
}
