package honeynet

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/appscript"
	"repro/internal/geo"
	"repro/internal/monitor"
)

// actionCounter wraps a shard's stream sink and counts the actions it
// hands on to the classifier.
type actionCounter struct {
	monitor.Sink
	actions *int
}

func (c actionCounter) ObserveNotification(n appscript.Notification) {
	if _, ok := actionKind(n.Kind); ok {
		*c.actions++
	}
	c.Sink.ObserveNotification(n)
}

// monitorOracle builds the merged access list from the monitors' own
// diff state, independently of the classifiers: every shard monitor's
// end-of-run Dataset rows, annotated with the plan facts of the
// account's assignment and sorted by (account, cookie).
func monitorOracle(e *Experiment) []analysis.Access {
	group := make(map[string]GroupSpec, len(e.assignments))
	for _, a := range e.assignments {
		group[a.Account] = a.Group
	}
	var out []analysis.Access
	for _, sh := range e.shards {
		for _, rec := range sh.mon.Dataset() {
			g := group[rec.Account]
			out = append(out, analysis.Access{
				Account:   rec.Account,
				Cookie:    rec.Cookie,
				First:     rec.First,
				Last:      rec.Last,
				Outlet:    g.Channel,
				Hint:      g.Hint,
				LeakTime:  e.leakTimes[rec.Account],
				IP:        rec.IP,
				City:      rec.City,
				Country:   rec.Country,
				HasPoint:  rec.HasPoint,
				Point:     geo.Point{Lat: rec.Lat, Lon: rec.Lon},
				UserAgent: rec.UserAgent,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Account != out[j].Account {
			return out[i].Account < out[j].Account
		}
		return out[i].Cookie < out[j].Cookie
	})
	return out
}

// TestDatasetMatchesMonitorOracle: the Dataset rebuilt from the shard
// classifiers holds exactly the rows the monitors' own diff state
// exports, with plan facts applied, and exactly the actions the
// classifiers ingested — at one shard and at four.
func TestDatasetMatchesMonitorOracle(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := fastConfig(42)
			cfg.Shards = shards
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int, len(e.shards)) // one per shard: shards run concurrently
			for i, sh := range e.shards {
				sh.store.SetSink(actionCounter{Sink: sh.store.Sink(), actions: &counts[i]})
			}
			if err := e.RunAll(); err != nil {
				t.Fatal(err)
			}
			ds := e.Dataset()

			want := monitorOracle(e)
			if len(want) == 0 {
				t.Fatal("monitors observed no accesses")
			}
			if len(ds.Accesses) != len(want) {
				t.Fatalf("Dataset has %d accesses, monitors %d", len(ds.Accesses), len(want))
			}
			for i := range want {
				if ds.Accesses[i] != want[i] {
					t.Fatalf("access %d differs:\n  dataset: %+v\n  monitor: %+v", i, ds.Accesses[i], want[i])
				}
			}

			ingested := 0
			for _, n := range counts {
				ingested += n
			}
			if ingested == 0 {
				t.Fatal("classifiers ingested no actions")
			}
			if len(ds.Actions) != ingested {
				t.Fatalf("Dataset has %d actions, classifiers ingested %d", len(ds.Actions), ingested)
			}
		})
	}
}
