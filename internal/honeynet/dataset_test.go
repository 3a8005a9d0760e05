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

// tap sits between one shard's monitoring pipeline and its stream
// sink. It keeps the newest scraped row per (account, cookie) — the
// monitor's raw stream folded the way the delivery contract says — and
// counts the actions the sink hands on to the classifier.
type tap struct {
	observer
	rows    map[[2]string]monitor.AccessRecord
	actions int
}

func (t *tap) ObserveAccess(r monitor.AccessRecord) {
	t.rows[[2]string{r.Account, r.Cookie}] = r
	t.observer.ObserveAccess(r)
}

func (t *tap) Notify(n appscript.Notification) {
	if _, ok := actionKind(n.Kind); ok {
		t.actions++
	}
	t.observer.Notify(n)
}

// tapShards rewires every shard's monitoring pipeline through a tap.
// Call it after New and before Setup, while no script is installed and
// no account tracked.
func tapShards(t *testing.T, e *Experiment) []*tap {
	t.Helper()
	monEP, err := monitorEndpoint(e.src, e.gaz, len(e.plan))
	if err != nil {
		t.Fatal(err)
	}
	taps := make([]*tap, len(e.shards)) // one per shard: shards run concurrently
	for i, sh := range e.shards {
		taps[i] = &tap{observer: &streamSink{sc: sh.sc}, rows: map[[2]string]monitor.AccessRecord{}}
		sh.attachMonitoring(monEP, taps[i])
	}
	return taps
}

// monitorOracle builds the merged access list from the monitors' raw
// streams, independently of the classifiers: every row a tap kept,
// annotated with the plan facts of the account's assignment and
// sorted by (account, cookie).
func monitorOracle(e *Experiment, taps []*tap) []analysis.Access {
	group := make(map[string]GroupSpec, len(e.assignments))
	for _, a := range e.assignments {
		group[a.Account] = a.Group
	}
	var out []analysis.Access
	for _, tp := range taps {
		for _, rec := range tp.rows {
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
// classifiers holds exactly the newest rows the monitors streamed,
// with plan facts applied, and exactly the actions the classifiers
// ingested — at one shard and at four.
func TestDatasetMatchesMonitorOracle(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := fastConfig(42)
			cfg.Shards = shards
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			taps := tapShards(t, e)
			if err := e.RunAll(); err != nil {
				t.Fatal(err)
			}
			ds := e.Dataset()

			want := monitorOracle(e, taps)
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
			for _, tp := range taps {
				ingested += tp.actions
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
