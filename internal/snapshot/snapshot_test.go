package snapshot

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// sampleState builds a small but fully populated state touching every
// field the codec serializes.
func sampleState() *State {
	return &State{
		Config: Config{
			Seed: -42, SetupSeed: 7, Fingerprint: 0xdeadbeefcafe,
			StartNS: 1435190400000000000, DurationNS: 86400e9, MailboxSize: 3,
			ScanIntervalNS: 600e9, ScrapeIntervalNS: 3600e9, Shards: 2, Scale: 1,
			DisableCaseStudies: false,
			LoginRisk:          LoginRisk{BlockTor: true},
			CustomSites:        true,
			DefenderCadenceNS:  43200e9, C3BucketBits: 12, C3Variants: true,
		},
		Plan: []Block{
			{ID: 1, Count: 2, Channel: "paste", Hint: "", Label: "popular paste sites"},
			{ID: 5, Count: 1, Channel: "malware", Hint: "uk", Label: "malware"},
		},
		Root:  Stream{Seed: -42, Pos: 3},
		Setup: Stream{Seed: 7, Pos: 991},
		Shards: []Shard{
			{NowNS: 1435190400000000000, Seq: 3, Fired: 0, Pending: 3, Chains: []Chain{
				{IntervalNS: 600e9, PhaseNS: 0, Entries: 2},
				{IntervalNS: 3600e9, PhaseNS: 0, Entries: 1},
			}},
			{NowNS: 1435190400000000000, Seq: 3, Fired: 0, Pending: 3},
		},
		Cursors:  []Cursor{{Account: "a@x.example", LastSeen: 0}, {Account: "b@x.example", LastSeen: 0}},
		Defender: []Cursor{{Account: "a@x.example", LastSeen: 0}, {Account: "b@x.example", LastSeen: 0}},
		Accounts: []Account{
			{
				Address: "a@x.example", Password: "hp-0001", Owner: "Ada X",
				SendFrom: "capture@sinkhole.example", NextID: 3,
				Messages: []Message{
					{ID: 1, Folder: "inbox", From: "c@y.example", To: "a@x.example",
						Subject: "re: budget", Body: "see attached\nthanks", DateNS: 1434000000000000000},
					{ID: 2, Folder: "sent", From: "a@x.example", To: "c@y.example",
						Subject: "budget", Body: "draft v2", DateNS: 1434100000000000000,
						Read: true, Starred: true, Labels: []string{"finance", "q2"}},
				},
			},
			{Address: "b@x.example", Password: "hp-0002", Owner: "Bo Y", NextID: 1},
		},
	}
}

// TestRoundTrip: Decode(Encode(s)) reproduces the state exactly, and
// re-encoding reproduces the bytes exactly (canonical form).
func TestRoundTrip(t *testing.T) {
	s := sampleState()
	data := s.Encode()
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip lost state:\nin:  %+v\nout: %+v", s, got)
	}
	if again := got.Encode(); !bytes.Equal(data, again) {
		t.Fatal("re-encoding a decoded state changed the bytes (non-canonical codec)")
	}
}

// TestDecodeRejectsCorruption: every single-byte flip and every
// truncation of a valid snapshot must error — the checksum or the
// strict field readers catch it — and never panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	data := sampleState().Encode()
	for i := range data {
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0x40
		if _, err := Decode(mutated); err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
	}
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	if _, err := Decode(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestDecodeRejectsWrongVersion: a snapshot from the previous format
// or a future one is refused with a version error naming it, not
// misparsed.
func TestDecodeRejectsWrongVersion(t *testing.T) {
	for _, v := range []byte{Version - 1, Version + 1} {
		data := sampleState().Encode()
		// The version byte sits in the magic, before any frame
		// checksum, so the version check itself is what fires.
		data[7] = v
		_, err := Decode(data)
		if want := fmt.Sprintf("unsupported format version %d", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version %d: err = %v, want %q", v, err, want)
		}
	}
}

// TestFileRoundTrip: ReadFile decodes a file of canonical bytes back
// to the state they encode.
func TestFileRoundTrip(t *testing.T) {
	s := sampleState()
	path := t.TempDir() + "/exp.snap"
	if err := os.WriteFile(path, s.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatal("file round trip lost state")
	}
	if _, err := ReadFile(path + ".missing"); err == nil {
		t.Fatal("missing file read succeeded")
	}
}
