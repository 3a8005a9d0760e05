package livefleet

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/simtime"
	"repro/internal/snapshot"
	"repro/internal/webmail"
)

var parityEpoch = time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)

// buildTestSnapshot writes a small but realistic snapshot file:
// nAccounts mailboxes, each seeded with three messages.
func buildTestSnapshot(t *testing.T, nAccounts int) string {
	t.Helper()
	st := &snapshot.State{}
	base := parityEpoch.Add(-30 * 24 * time.Hour)
	for i := 0; i < nAccounts; i++ {
		addr := fmt.Sprintf("user%03d@honeymail.example", i)
		st.Accounts = append(st.Accounts, snapshot.Account{
			Address:  addr,
			Password: fmt.Sprintf("pw-%03d", i),
			Owner:    fmt.Sprintf("Owner %03d", i),
			SendFrom: addr,
			NextID:   4,
			Messages: []snapshot.Message{
				{ID: 1, Folder: "inbox", From: "bank@bank.example", To: addr,
					Subject: "Your statement and payment summary", Body: "wire transfer details inside",
					DateNS: base.UnixNano()},
				{ID: 2, Folder: "inbox", From: "friend@mail.example", To: addr,
					Subject: "family photos", Body: "see attached", DateNS: base.Add(24 * time.Hour).UnixNano(), Read: true},
				{ID: 3, Folder: "sent", From: addr, To: "friend@mail.example",
					Subject: "re: family photos", Body: "lovely", DateNS: base.Add(25 * time.Hour).UnixNano(), Read: true},
			},
		})
	}
	path := filepath.Join(t.TempDir(), "seed.snap")
	if err := os.WriteFile(path, st.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func svcConfig() webmail.Config {
	return webmail.Config{Clock: simtime.NewClock(parityEpoch)}
}

func TestBootServicePartitioning(t *testing.T) {
	path := buildTestSnapshot(t, 20)
	const parts = 2
	seen := map[string]int{}
	for part := 0; part < parts; part++ {
		svc, creds, err := BootService(path, part, parts, svcConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range creds {
			if got := webmail.PartitionIndex(c.Address, parts); got != part {
				t.Fatalf("account %s restored on shard %d but hashes to %d", c.Address, part, got)
			}
			seen[c.Address]++
			if _, err := svc.Password(c.Address); err != nil {
				t.Fatalf("restored account %s not in service: %v", c.Address, err)
			}
			counts, err := svc.Counts(c.Address)
			if err != nil {
				t.Fatal(err)
			}
			if counts.Inbox != 2 || counts.Sent != 1 {
				t.Fatalf("account %s restored with counts %+v", c.Address, counts)
			}
		}
	}
	if len(seen) != 20 {
		t.Fatalf("shards restored %d distinct accounts, want 20", len(seen))
	}
	for addr, n := range seen {
		if n != 1 {
			t.Fatalf("account %s restored on %d shards", addr, n)
		}
	}
}

func TestBootServiceRejectsBadPartition(t *testing.T) {
	path := buildTestSnapshot(t, 1)
	if _, _, err := BootService(path, 2, 2, svcConfig()); err == nil {
		t.Fatal("partition out of range accepted")
	}
	if _, _, err := BootService(path, 0, 0, svcConfig()); err == nil {
		t.Fatal("zero parts accepted")
	}
}

func TestCredentialsRoundTrip(t *testing.T) {
	creds := []Credential{
		{Address: "a@x.example", Password: "p1"},
		{Address: "b@x.example", Password: "p2"},
	}
	var buf strings.Builder
	if err := WriteCredentials(&buf, creds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCredentials(strings.NewReader("# leak file\n\n" + buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, creds) {
		t.Fatalf("round trip: %v != %v", got, creds)
	}
	if _, err := ReadCredentials(strings.NewReader("a@x.example p1\nonly-one-field\n")); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("bad line: err = %v, want it rejected at line 2", err)
	}
	if _, err := ReadCredentials(strings.NewReader("a@x.example " + strings.Repeat("p", 64<<10) + "\n")); err == nil {
		t.Fatal("line past the scanner's 64 KiB limit accepted")
	}
}
