// Defender-loop invariance: the C3 detection race (time-to-detection
// vs. time-to-exploit) is a new reported axis, so it inherits every
// determinism guarantee the rest of the report carries — byte-
// identical at any shard count and across a snapshot/resume boundary. And when the defender is disabled, the
// subsystem must be invisible: no outcomes, no section, no change to
// any existing byte (the golden corpus pins the latter).
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/c3"
	"repro/internal/honeynet"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/snapshot"
)

func defenderTestConfig(seed int64, shards int) honeynet.Config {
	cfg := streamTestConfig(seed, shards)
	cfg.DefenderCadence = 12 * time.Hour
	cfg.C3BucketBits = 10
	return cfg
}

// defenderSection renders the detection-race section for an
// experiment, prefixed with the fleet C3 stats so ingest counts are
// part of the compared bytes too.
func defenderSection(t *testing.T, exp *honeynet.Experiment) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(report.Defender(scenario.DefenderRows(exp.DefenderOutcomes())))
	fmt.Fprintf(&b, "indexed=%d\n", exp.C3Stats().Credentials)
	return b.String()
}

// TestDefenderInvariance: detection outcomes and the rendered section
// are identical at shards=1 and shards=4.
func TestDefenderInvariance(t *testing.T) {
	run := func(shards int) (*honeynet.Experiment, string) {
		exp, err := honeynet.New(defenderTestConfig(11, shards))
		if err != nil {
			t.Fatal(err)
		}
		if err := exp.RunAll(); err != nil {
			t.Fatal(err)
		}
		return exp, defenderSection(t, exp)
	}
	expOne, one := run(1)
	_, four := run(4)
	if one != four {
		t.Errorf("defender section differs between shards=1 and shards=4:\n%s", firstDiff(one, four))
	}
	outcomes := expOne.DefenderOutcomes()
	if len(outcomes) != len(expOne.Assignments()) {
		t.Fatalf("DefenderOutcomes covers %d accounts, fleet has %d", len(outcomes), len(expOne.Assignments()))
	}
	detected := 0
	for _, o := range outcomes {
		if o.Detected {
			detected++
			if o.DetectedAt.Before(o.LeakAt) {
				t.Fatalf("%s detected at %v, before its leak at %v", o.Account, o.DetectedAt, o.LeakAt)
			}
		}
	}
	if detected == 0 {
		t.Fatal("no account was ever detected — the C3 ingestion hooks are dead")
	}
	if st := expOne.C3Stats(); st.Credentials == 0 || st.BucketBits != 10 {
		t.Fatalf("C3Stats = %+v, want >0 credentials at 10 bits", st)
	}
}

// TestDefenderDisabledInvisible: with DefenderCadence zero the
// subsystem must leave no trace — nil outcomes, zero stats, and (via
// the golden corpus, which predates the feature) unchanged report and
// artifact bytes. The scenario renderer and the canonical artifact
// must add their defender sections exactly when the spec arms the
// loop, and the artifact's section must survive its encoding.
func TestDefenderDisabledInvisible(t *testing.T) {
	exp, err := honeynet.New(streamTestConfig(11, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.RunAll(); err != nil {
		t.Fatal(err)
	}
	if exp.DefenderEnabled() {
		t.Fatal("defender enabled without a cadence")
	}
	if out := exp.DefenderOutcomes(); out != nil {
		t.Fatalf("disabled defender returned %d outcomes", len(out))
	}
	if st := exp.C3Stats(); st != (c3.Stats{}) {
		t.Fatalf("disabled defender has C3 stats %+v", st)
	}

	base := scenario.Spec{Name: "defender-off", Days: 30}
	armed := scenario.Spec{Name: "defender-on", Days: 30, DefenderCadence: "24h"}
	opts := scenario.Options{BaseSeed: 3, Workers: 2}
	offRes, onRes := scenario.Run(base, 3, opts), scenario.Run(armed, 3, opts)
	off, err := scenario.RenderFullReport(offRes, 50)
	if err != nil {
		t.Fatal(err)
	}
	on, err := scenario.RenderFullReport(onRes, 50)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(off, "===== defender =====") {
		t.Fatal("defender-off scenario rendered a defender section")
	}
	if !strings.Contains(on, "===== defender =====") {
		t.Fatal("defender-on scenario did not render the defender section")
	}

	encode := func(r *scenario.Result) []byte {
		t.Helper()
		art, err := scenario.BuildArtifact(r)
		if err != nil {
			t.Fatal(err)
		}
		data, err := art.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if data := encode(offRes); bytes.Contains(data, []byte(`"defender"`)) {
		t.Fatal("defender-off artifact carries a defender section")
	}
	data := encode(onRes)
	var decoded struct {
		Defender []struct {
			Channel  string `json:"channel"`
			Accounts int    `json:"accounts"`
			Detected int    `json:"detected"`
			RacesWon int    `json:"races_won"`
		} `json:"defender"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	tallies := report.DefenderTallies(scenario.DefenderRows(onRes.Defender))
	if len(tallies) == 0 || len(decoded.Defender) != len(tallies) {
		t.Fatalf("artifact carries %d defender rows, the report tallies %d channels", len(decoded.Defender), len(tallies))
	}
	for i, row := range decoded.Defender {
		want := tallies[i]
		if row.Channel != want.Channel || row.Accounts != want.Accounts ||
			row.Detected != want.Detected || row.RacesWon != want.Won {
			t.Fatalf("artifact defender row %d = %+v, report tally %+v", i, row, want)
		}
	}
}

// TestDefenderSnapshotRoundTrip: a snapshot taken with the defender
// armed carries one zero cursor per watched account, survives the
// codec, resumes without drift, and the resumed run's detection race
// matches the uninterrupted one byte for byte (guarantee #5 extended
// to the new section).
func TestDefenderSnapshotRoundTrip(t *testing.T) {
	cfg := defenderTestConfig(21, 2)
	cfg.Duration = 45 * 24 * time.Hour

	cold, err := honeynet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := defenderSection(t, cold)

	fresh, err := honeynet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Setup(); err != nil {
		t.Fatal(err)
	}
	st, err := fresh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Defender) != len(fresh.Assignments()) {
		t.Fatalf("snapshot holds %d defender cursors, fleet has %d accounts", len(st.Defender), len(fresh.Assignments()))
	}
	for i, c := range st.Defender {
		if c.LastSeen != 0 {
			t.Fatalf("boundary defender cursor %d has LastSeen %d", i, c.LastSeen)
		}
		if i > 0 && st.Defender[i-1].Account >= c.Account {
			t.Fatalf("defender cursors not strictly account-sorted at %d", i)
		}
	}
	if st.Config.DefenderCadenceNS != int64(cfg.DefenderCadence) || st.Config.C3BucketBits != cfg.C3BucketBits {
		t.Fatalf("snapshot config lost defender knobs: %+v", st.Config)
	}

	decoded, err := snapshot.Decode(st.Encode())
	if err != nil {
		t.Fatal(err)
	}
	restoredCfg, err := honeynet.ConfigFromSnapshot(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if restoredCfg.DefenderCadence != cfg.DefenderCadence || restoredCfg.C3BucketBits != cfg.C3BucketBits {
		t.Fatalf("ConfigFromSnapshot lost defender knobs: %+v", restoredCfg)
	}
	resumed, err := honeynet.ResumeWith(decoded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Leak(); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(); err != nil {
		t.Fatal(err)
	}
	if got := defenderSection(t, resumed); got != want {
		t.Errorf("resumed detection race diverged from cold run:\n%s", firstDiff(want, got))
	}
}
