package snapshot

import (
	"encoding/binary"
	"fmt"
)

// writer builds the canonical byte form: unsigned fields as minimal
// uvarints, signed fields zigzag-coded, strings length-prefixed.
type writer struct {
	buf []byte
}

func (w *writer) u64(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

func (w *writer) i64(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

func (w *writer) count(n int) { w.u64(uint64(n)) }

func (w *writer) str(s string) {
	w.count(len(s))
	w.buf = append(w.buf, s...)
}

func (w *writer) bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// reader is the strict inverse. Every accessor names the field it is
// reading so corruption errors point at the exact spot, varints must
// be minimally encoded (one valid byte form per State — the canonical
// round-trip FuzzSnapshotDecode asserts), and element counts are
// bounded by the remaining input so hostile headers cannot force
// over-allocation.
type reader struct {
	data []byte
	off  int
}

func (r *reader) remaining() int { return len(r.data) - r.off }

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func (r *reader) u64(what string) (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("snapshot: truncated or overlong %s at byte %d", what, r.off)
	}
	if n != uvarintLen(v) {
		return 0, fmt.Errorf("snapshot: non-minimal varint for %s at byte %d", what, r.off)
	}
	r.off += n
	return v, nil
}

func (r *reader) i64(what string) (int64, error) {
	u, err := r.u64(what)
	if err != nil {
		return 0, err
	}
	// Inverse zigzag, matching binary.AppendVarint's encoding.
	return int64(u>>1) ^ -int64(u&1), nil
}

// intField reads a signed field that must fit the platform int.
func (r *reader) intField(what string) (int, error) {
	v, err := r.i64(what)
	if err != nil {
		return 0, err
	}
	if v != int64(int(v)) {
		return 0, fmt.Errorf("snapshot: %s %d overflows int", what, v)
	}
	return int(v), nil
}

// count reads an element count; each element needs at least one byte,
// so any count beyond the remaining input is corrupt by construction.
func (r *reader) count(what string) (int, error) {
	v, err := r.u64(what)
	if err != nil {
		return 0, err
	}
	if v > uint64(r.remaining()) {
		return 0, fmt.Errorf("snapshot: %s count %d exceeds remaining %d bytes", what, v, r.remaining())
	}
	return int(v), nil
}

func (r *reader) str(what string) (string, error) {
	n, err := r.count(what + " length")
	if err != nil {
		return "", err
	}
	if r.remaining() < n {
		return "", fmt.Errorf("snapshot: truncated %s at byte %d", what, r.off)
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s, nil
}

func (r *reader) bool(what string) (bool, error) {
	if r.remaining() < 1 {
		return false, fmt.Errorf("snapshot: truncated %s at byte %d", what, r.off)
	}
	b := r.data[r.off]
	r.off++
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("snapshot: %s has non-boolean byte %#x", what, b)
	}
}
