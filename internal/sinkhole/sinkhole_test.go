package sinkhole

import (
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)

func TestStoreDeliverAndQuery(t *testing.T) {
	var st Store
	if st.Count() != 0 {
		t.Fatalf("fresh store count = %d", st.Count())
	}
	if err := st.Deliver(Sender, "b@y", "subj", "body", epoch.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := st.Deliver(Sender, "c@z", "subj2", "body2", time.Time{}); err != nil {
		t.Fatal(err)
	}
	// Mail that escaped the send-from override is refused, uncounted.
	if err := st.Deliver("a@x", "c@z", "subj3", "body3", epoch); err == nil {
		t.Fatal("mail from a foreign envelope sender accepted")
	}
	if st.Count() != 2 {
		t.Fatalf("count = %d", st.Count())
	}
}

func TestStoreNeverForwards(t *testing.T) {
	// The Outbound contract: Deliver always succeeds for Sender and has
	// no side effects beyond the count, even from concurrent senders.
	var st Store
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := st.Deliver(Sender, "victim@real", "buy", "spam", epoch); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if st.Count() != 100 {
		t.Fatalf("count = %d", st.Count())
	}
}
