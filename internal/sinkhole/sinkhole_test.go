package sinkhole

import (
	"testing"
	"time"
)

var epoch = time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)

func fixedNow() time.Time { return epoch }

func TestStoreDeliverAndQuery(t *testing.T) {
	st := NewStore(fixedNow)
	if err := st.Deliver("a@x", "b@y", "subj", "body", epoch.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := st.Deliver("a@x", "c@z", "subj2", "body2", time.Time{}); err != nil {
		t.Fatal(err)
	}
	if st.Count() != 2 {
		t.Fatalf("count = %d", st.Count())
	}
	all := st.All()
	if all[0].Received != epoch.Add(time.Hour) {
		t.Fatalf("explicit timestamp lost: %v", all[0].Received)
	}
	if all[1].Received != epoch {
		t.Fatalf("zero timestamp should use clock: %v", all[1].Received)
	}
}

func TestStoreNeverForwards(t *testing.T) {
	// The Outbound contract: Deliver always succeeds and has no side
	// effects beyond the archive.
	st := NewStore(fixedNow)
	for i := 0; i < 100; i++ {
		if err := st.Deliver("spammer@honey", "victim@real", "buy", "spam", epoch); err != nil {
			t.Fatal(err)
		}
	}
	if st.Count() != 100 {
		t.Fatalf("count = %d", st.Count())
	}
}
