package webmail

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/snapshot"
)

func exportTestService(t *testing.T) *Service {
	t.Helper()
	return NewService(Config{Clock: simtime.NewClock(time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC))})
}

// TestExportRestoreRoundTrip: a seeded account exports, restores onto
// another service, and exports identically — flags, folders, and
// searchable text (via Search) included.
func TestExportRestoreRoundTrip(t *testing.T) {
	svc := exportTestService(t)
	if err := svc.CreateAccount("kim@x.example", "pw", "Kim Q"); err != nil {
		t.Fatal(err)
	}
	if err := svc.SetSendFrom("kim@x.example", "capture@sinkhole.example"); err != nil {
		t.Fatal(err)
	}
	date := time.Date(2015, 3, 1, 9, 0, 0, 0, time.UTC)
	if _, err := svc.Seed("kim@x.example", FolderInbox, "al@y.example", "kim@x.example", "Budget Draft", "numbers inside", date); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Seed("kim@x.example", FolderSent, "kim@x.example", "al@y.example", "re: budget", "looks fine", date.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}

	exp, err := svc.ExportAccount("kim@x.example")
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Messages) != 2 || exp.NextID != 3 || exp.SendFrom != "capture@sinkhole.example" {
		t.Fatalf("unexpected export %+v", exp)
	}

	svc2 := exportTestService(t)
	if err := svc2.RestoreAccount(&exp); err != nil {
		t.Fatal(err)
	}
	exp2, err := svc2.ExportAccount("kim@x.example")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exp, exp2) {
		t.Fatalf("restore lost state:\nin:  %+v\nout: %+v", exp, exp2)
	}
	// The restored text serves search case-insensitively.
	sess, err := svc2.Login("kim@x.example", "pw", "c1", netsim.Endpoint{})
	if err != nil {
		t.Fatal(err)
	}
	hits, err := sess.Search("budget")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("search over restored mailbox found %d messages, want 2", len(hits))
	}
	if err := svc2.RestoreAccount(&exp); err != ErrAccountExists {
		t.Fatalf("duplicate restore: got %v, want ErrAccountExists", err)
	}
}

// TestExportRefusesLiveAccounts: an account with any activity is past
// the post-setup boundary and must not export.
func TestExportRefusesLiveAccounts(t *testing.T) {
	svc := exportTestService(t)
	if err := svc.CreateAccount("liv@x.example", "pw", "Liv"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Login("liv@x.example", "pw", "c9", netsim.Endpoint{}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ExportAccount("liv@x.example"); err == nil {
		t.Fatal("export of an account with journal activity accepted")
	}
	if _, err := svc.ExportAccount("ghost@x.example"); err == nil {
		t.Fatal("export of a missing account accepted")
	}
}

// TestRestoreRejectsMalformedExports: any shape ExportAccount cannot
// produce is refused before state lands, and before the columns are
// sized, so a crafted ID cannot make the restore allocate for it.
func TestRestoreRejectsMalformedExports(t *testing.T) {
	svc := exportTestService(t)
	msgs := func(ids ...int64) []snapshot.Message {
		out := make([]snapshot.Message, len(ids))
		for i, id := range ids {
			out[i] = snapshot.Message{ID: id, Folder: "inbox"}
		}
		return out
	}
	for _, c := range []struct {
		name string
		exp  snapshot.Account
	}{
		{"message id beyond NextID", snapshot.Account{Address: "b@x.example", NextID: 2, Messages: msgs(5)}},
		{"duplicate message id", snapshot.Account{Address: "b@x.example", NextID: 3, Messages: msgs(1, 1)}},
		{"gap in the ids", snapshot.Account{Address: "b@x.example", NextID: 4, Messages: msgs(1, 3)}},
		{"descending ids", snapshot.Account{Address: "b@x.example", NextID: 3, Messages: msgs(2, 1)}},
		{"NextID past n+1", snapshot.Account{Address: "b@x.example", NextID: 5, Messages: msgs(1, 2)}},
		{"NextID short of n+1", snapshot.Account{Address: "b@x.example", NextID: 2, Messages: msgs(1, 2)}},
		{"NextID zero", snapshot.Account{Address: "b@x.example"}},
		{"id 2^40", snapshot.Account{Address: "b@x.example", NextID: 1<<40 + 1, Messages: msgs(1 << 40)}},
		{"id 2^22-1", snapshot.Account{Address: "b@x.example", NextID: 1 << 22, Messages: msgs(1<<22 - 1)}},
		{"empty address", snapshot.Account{NextID: 1}},
	} {
		var err error
		if grew := heapGrowth(func() { err = svc.RestoreAccount(&c.exp) }); grew > 64<<10 {
			t.Errorf("%s: refusing it allocated %d bytes", c.name, grew)
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if c.exp.Address != "" {
			if _, err := svc.ExportAccount(c.exp.Address); err != ErrNoSuchAccount {
				t.Errorf("%s: refused restore left an account behind (%v)", c.name, err)
			}
		}
	}
}

// heapGrowth reports the bytes f allocates.
func heapGrowth(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRestoreMatchesSeed: an account loaded with one RestoreAccount
// is indistinguishable from one built message by message with
// CreateAccount + SetSendFrom + Seed: the same export, zero version
// counters, an empty journal, and the same search and listing results.
func TestRestoreMatchesSeed(t *testing.T) {
	const addr = "ada.lee@honeymail.example"
	owner := corpus.Persona{First: "Ada", Last: "Lee", Email: addr, Title: "Trader", Department: "Trading"}
	end := time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)
	mailbox := corpus.NewGenerator(rng.New(3)).MailboxAppend(nil, owner, 90, end.Add(-180*24*time.Hour), end)

	seeded := exportTestService(t)
	if err := seeded.CreateAccount(addr, "pw", owner.FullName()); err != nil {
		t.Fatal(err)
	}
	if err := seeded.SetSendFrom(addr, "capture@sinkhole.example"); err != nil {
		t.Fatal(err)
	}
	exp := snapshot.Account{Address: addr, Password: "pw", Owner: owner.FullName(),
		SendFrom: "capture@sinkhole.example", NextID: 1}
	sent := 0
	for _, m := range mailbox {
		folder := FolderInbox
		if m.From == addr {
			folder = FolderSent
			sent++
		}
		if _, err := seeded.Seed(addr, folder, m.From, m.To, m.Subject, m.Body, m.Date); err != nil {
			t.Fatal(err)
		}
		AppendSeeded(&exp, m.From, m.To, m.Subject, m.Body, m.Date)
	}
	if sent == 0 || sent == len(mailbox) {
		t.Fatalf("mailbox has %d sent of %d; the test needs both folders", sent, len(mailbox))
	}
	restored := exportTestService(t)
	if err := restored.RestoreAccount(&exp); err != nil {
		t.Fatal(err)
	}

	want, err := seeded.ExportAccount(addr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.ExportAccount(addr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored export differs from seeded:\ngot  %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(exp, want) {
		t.Fatal("AppendSeeded built a different export than ExportAccount reports for the seeded account")
	}
	if v, av, j := restored.Version(addr), restored.AccessVersion(addr), restored.Journal(addr); v != 0 || av != 0 || len(j) != 0 {
		t.Fatalf("restored account has version %d, access version %d, %d journal entries", v, av, len(j))
	}

	view := func(svc *Service) (out [][]Message) {
		se, err := svc.Login(addr, "pw", "c1", netsim.Endpoint{})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{"transfer", "WIRE transfer", "payroll", "Regards", "solenix", "nothing-matches"} {
			hits, err := se.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, hits)
		}
		for _, f := range []Folder{FolderInbox, FolderSent, FolderDrafts} {
			for _, limit := range []int{0, 1, 25} {
				list, err := se.ListN(f, limit)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, list)
			}
		}
		return out
	}
	if got, want := view(restored), view(seeded); !reflect.DeepEqual(got, want) {
		t.Fatal("search or listing over the restored account differs from the seeded one")
	}
}

// FuzzRestoreAccount drives the load path with arbitrary NextIDs,
// message IDs and folders. ids holds zigzag varints, one per message;
// each byte of folders picks a message's folder (low three bits) and
// its read (0x08) and starred (0x10) flags. Restore must refuse the
// export or leave an account that ExportAccount returns unchanged, and
// must never panic.
func FuzzRestoreAccount(f *testing.F) {
	f.Fuzz(func(t *testing.T, nextID int64, ids []byte, folders []byte) {
		exp := snapshot.Account{Address: "f@x.example", Password: "pw", Owner: "F", NextID: nextID}
		date := time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC)
		for len(ids) > 0 && len(exp.Messages) < 64 {
			id, n := binary.Varint(ids)
			if n <= 0 {
				break
			}
			ids = ids[n:]
			var b byte
			if i := len(exp.Messages); i < len(folders) {
				b = folders[i]
			}
			exp.Messages = append(exp.Messages, snapshot.Message{
				ID: id, Folder: []string{"inbox", "sent", "drafts", "spam", ""}[int(b&7)%5],
				From: "a@y.example", To: "f@x.example", Subject: "s", Body: "b",
				DateNS: date.Add(time.Duration(id) * time.Second).UnixNano(),
				Read:   b&0x08 != 0, Starred: b&0x10 != 0,
			})
		}
		svc := NewService(Config{Clock: simtime.NewClock(date)})
		if err := svc.RestoreAccount(&exp); err != nil {
			if _, err := svc.ExportAccount(exp.Address); err != ErrNoSuchAccount {
				t.Fatalf("refused restore left an account behind (%v)", err)
			}
			return
		}
		got, err := svc.ExportAccount(exp.Address)
		if err != nil {
			t.Fatalf("restored account does not export: %v", err)
		}
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("round trip changed the account:\nin:  %+v\nout: %+v", exp, got)
		}
	})
}
