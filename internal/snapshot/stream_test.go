package snapshot

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
)

// fleetState builds a state with n accounts on top of sampleState's
// fully populated meta — enough to span multiple canonical account
// blocks (BlockAccounts = 64) when n is large.
func fleetState(n int) *State {
	s := sampleState()
	s.Cursors = nil
	s.Accounts = nil
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("a%04d@x.example", i)
		s.Cursors = append(s.Cursors, Cursor{Account: addr})
		s.Accounts = append(s.Accounts, Account{
			Address:  addr,
			Password: fmt.Sprintf("hp-%04d", i),
			Owner:    "Fleet Owner",
			SendFrom: "capture@sinkhole.example",
			NextID:   2,
			Messages: []Message{{
				ID: 1, Folder: "inbox", From: "c@y.example", To: addr,
				Subject: fmt.Sprintf("invoice %d", i),
				Body:    "wire transfer details and account statement",
				DateNS:  1434000000000000000 + int64(i),
			}},
		})
	}
	return s
}

// TestStreamMatchesEncode: streaming accounts one at a time through an
// Encoder produces byte-for-byte what the whole-state Encode produces,
// at sizes below, at, and across the canonical block boundary; and a
// Decoder streams the same accounts back out before returning io.EOF.
func TestStreamMatchesEncode(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		st := fleetState(n)
		batch := st.Encode()

		var buf bytes.Buffer
		e, err := NewEncoder(&buf, st, n)
		if err != nil {
			t.Fatalf("n=%d: NewEncoder: %v", n, err)
		}
		for i := range st.Accounts {
			if err := e.WriteAccount(&st.Accounts[i]); err != nil {
				t.Fatalf("n=%d: WriteAccount(%d): %v", n, i, err)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatalf("n=%d: Close: %v", n, err)
		}
		if !bytes.Equal(buf.Bytes(), batch) {
			t.Fatalf("n=%d: streamed encoding differs from Encode (%d vs %d bytes)", n, buf.Len(), len(batch))
		}

		d, err := NewDecoder(bytes.NewReader(batch))
		if err != nil {
			t.Fatalf("n=%d: NewDecoder: %v", n, err)
		}
		meta := *st
		meta.Accounts = nil
		if !reflect.DeepEqual(d.Meta(), &meta) {
			t.Fatalf("n=%d: decoded meta drifted", n)
		}
		var a Account
		for i := 0; i < n; i++ {
			if err := d.Next(&a); err != nil {
				t.Fatalf("n=%d: Next(%d): %v", n, i, err)
			}
			if !reflect.DeepEqual(a, st.Accounts[i]) {
				t.Fatalf("n=%d: account %d drifted through the stream", n, i)
			}
		}
		if err := d.Next(&a); err != io.EOF {
			t.Fatalf("n=%d: Next after last account = %v, want io.EOF", n, err)
		}
		if err := d.Next(&a); err != io.EOF {
			t.Fatalf("n=%d: second Next after EOF = %v, want io.EOF", n, err)
		}
	}
}

// TestStreamShortReads: the decoder must survive io.Readers that
// return fewer bytes than asked — one byte at a time, or half the
// request — without misparsing or false corruption errors.
func TestStreamShortReads(t *testing.T) {
	st := fleetState(130)
	data := st.Encode()
	wrappers := map[string]func(io.Reader) io.Reader{
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
	}
	for name, wrap := range wrappers {
		d, err := NewDecoder(wrap(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("%s: NewDecoder: %v", name, err)
		}
		var a Account
		for i := 0; i < 130; i++ {
			if err := d.Next(&a); err != nil {
				t.Fatalf("%s: Next(%d): %v", name, i, err)
			}
			if !reflect.DeepEqual(a, st.Accounts[i]) {
				t.Fatalf("%s: account %d drifted", name, i)
			}
		}
		if err := d.Next(&a); err != io.EOF {
			t.Fatalf("%s: want io.EOF, got %v", name, err)
		}
	}
}

// TestEncoderCountContract: the account count declared to NewEncoder
// is a contract — writing more accounts errors, closing with accounts
// still owed errors, and writing after Close errors. A truncated or
// padded checkpoint must never look complete.
func TestEncoderCountContract(t *testing.T) {
	st := fleetState(2)

	var buf bytes.Buffer
	e, err := NewEncoder(&buf, st, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.WriteAccount(&st.Accounts[0]); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteAccount(&st.Accounts[1]); err == nil {
		t.Fatal("WriteAccount beyond the declared count accepted")
	}

	buf.Reset()
	e, err = NewEncoder(&buf, st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.WriteAccount(&st.Accounts[0]); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err == nil {
		t.Fatal("Close with declared accounts unwritten accepted")
	}

	buf.Reset()
	e, err = NewEncoder(&buf, st, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range st.Accounts {
		if err := e.WriteAccount(&st.Accounts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteAccount(&st.Accounts[0]); err == nil {
		t.Fatal("WriteAccount after Close accepted")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := Decode(buf.Bytes()); err != nil {
		t.Fatalf("well-formed stream rejected: %v", err)
	}
}

// TestDecoderRejectsNonCanonicalChunking: a stream whose account
// frames hold anything other than BlockAccounts per full block is
// rejected even when every checksum is valid — chunking freedom would
// give one State two byte representations and break the fuzz target's
// re-encode contract.
func TestDecoderRejectsNonCanonicalChunking(t *testing.T) {
	st := fleetState(65)
	var buf bytes.Buffer
	e, err := NewEncoder(&buf, st, 65)
	if err != nil {
		t.Fatal(err)
	}
	// Split the accounts 32/33 instead of the canonical 64/1 by forcing
	// an early frame flush between them. All checksums stay valid.
	for i := 0; i < 32; i++ {
		if err := e.WriteAccount(&st.Accounts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.flushFrame(frameAccounts); err != nil {
		t.Fatal(err)
	}
	e.block = 0
	for i := 32; i < 65; i++ {
		if err := e.WriteAccount(&st.Accounts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(buf.Bytes()); err == nil {
		t.Fatal("non-canonically chunked stream accepted")
	}
}

// TestStreamCorruptionMultiBlock extends the exhaustive small-state
// corruption test to a snapshot spanning multiple account frames:
// sampled single-byte flips and truncations must all error, whichever
// frame they land in.
func TestStreamCorruptionMultiBlock(t *testing.T) {
	data := fleetState(130).Encode()
	for i := 0; i < len(data); i += 13 {
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0x40
		if _, err := Decode(mutated); err == nil {
			t.Fatalf("flip at byte %d of %d accepted", i, len(data))
		}
	}
	for n := 0; n < len(data); n += 7 {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(data))
		}
	}
}

// TestEncoderAllocsAreOBlock pins the codec's memory contract: the
// encoder buffers one canonical block, so streaming 16x the accounts
// through it must not cost meaningfully more allocations per encode —
// the payload buffer is reused frame to frame.
func TestEncoderAllocsAreOBlock(t *testing.T) {
	encode := func(st *State) func() {
		n := len(st.Accounts)
		return func() {
			e, err := NewEncoder(io.Discard, st, n)
			if err != nil {
				t.Fatal(err)
			}
			for i := range st.Accounts {
				if err := e.WriteAccount(&st.Accounts[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	small := testing.AllocsPerRun(10, encode(fleetState(BlockAccounts)))
	big := testing.AllocsPerRun(10, encode(fleetState(16*BlockAccounts)))
	if big > small+8 {
		t.Errorf("encoder allocations scale with fleet size: %v allocs at %d accounts vs %v at %d",
			big, 16*BlockAccounts, small, BlockAccounts)
	}
}

// BenchmarkEncoderStream measures the streaming encoder at one block
// and at sixteen blocks. With -benchmem the allocs/op column is the
// O(block) claim made observable: it stays flat as the account count
// grows 16x, because the encoder never holds more than one frame.
func BenchmarkEncoderStream(b *testing.B) {
	for _, n := range []int{BlockAccounts, 16 * BlockAccounts} {
		st := fleetState(n)
		b.Run(fmt.Sprintf("accounts=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e, err := NewEncoder(io.Discard, st, n)
				if err != nil {
					b.Fatal(err)
				}
				for j := range st.Accounts {
					if err := e.WriteAccount(&st.Accounts[j]); err != nil {
						b.Fatal(err)
					}
				}
				if err := e.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecoderStream measures the streaming decoder on the same
// sizes. Its allocations necessarily include the decoded strings it
// hands to the caller (those scale with the fleet), but the buffers it
// holds — one frame, one bounded read chunk — do not.
func BenchmarkDecoderStream(b *testing.B) {
	for _, n := range []int{BlockAccounts, 16 * BlockAccounts} {
		data := fleetState(n).Encode()
		b.Run(fmt.Sprintf("accounts=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var a Account
			for i := 0; i < b.N; i++ {
				d, err := NewDecoder(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				for {
					if err := d.Next(&a); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
