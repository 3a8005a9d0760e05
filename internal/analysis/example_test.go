package analysis_test

import (
	"fmt"
	"time"

	"repro/internal/analysis"
)

// Classifying a small access trace: one attacker logs in and reads
// mail (gold digger), a second logs in and does nothing (curious),
// and a password change after the second access marks the hijack.
func ExampleClassify() {
	leak := time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)
	ds := &analysis.Dataset{
		Accesses: []analysis.Access{
			{
				Account: "alice@honeymail.example", Cookie: "c-1",
				First: leak.Add(24 * time.Hour), Last: leak.Add(26 * time.Hour),
				Outlet: analysis.OutletPaste, LeakTime: leak,
			},
			{
				Account: "alice@honeymail.example", Cookie: "c-2",
				First: leak.Add(72 * time.Hour), Last: leak.Add(73 * time.Hour),
				Outlet: analysis.OutletPaste, LeakTime: leak,
			},
		},
		Actions: []analysis.Action{
			{Time: leak.Add(25 * time.Hour), Account: "alice@honeymail.example", Kind: analysis.ActionRead, Message: 7},
		},
		PasswordChanges: []analysis.PasswordChange{
			{Account: "alice@honeymail.example", Time: leak.Add(73 * time.Hour)},
		},
	}
	for _, c := range analysis.Classify(ds) {
		fmt.Printf("%s %s\n", c.Access.Cookie, c.Classes)
	}
	counts := analysis.AggregatesFromDataset(ds).Classes
	fmt.Printf("total=%d curious=%d gold-diggers=%d hijackers=%d\n",
		counts.Total, counts.Curious, counts.GoldDigger, counts.Hijacker)
	// Output:
	// c-1 gold-digger
	// c-2 hijacker
	// total=2 curious=0 gold-diggers=1 hijackers=1
}

// The streaming pipeline reaches the same classes without ever
// building a Dataset: observations arrive one at a time (here out of
// order, as shard scrapes would deliver them) and Finalize folds them
// into mergeable aggregates.
func ExampleStreamClassifier() {
	leak := time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)
	sc := analysis.NewStreamClassifier()
	sc.ObserveAction(analysis.Action{
		Time: leak.Add(25 * time.Hour), Account: "alice@honeymail.example",
		Kind: analysis.ActionRead, Message: 7,
	})
	sc.ObserveAccess(analysis.Access{
		Account: "alice@honeymail.example", Cookie: "c-1",
		First: leak.Add(24 * time.Hour), Last: leak.Add(26 * time.Hour),
		Outlet: analysis.OutletPaste, LeakTime: leak,
	})
	agg := sc.Finalize(nil, nil)
	fmt.Printf("accesses=%d gold-diggers=%d emails-read=%d\n",
		agg.Classes.Total, agg.Classes.GoldDigger, agg.EmailsRead)
	// Output:
	// accesses=1 gold-diggers=1 emails-read=1
}
