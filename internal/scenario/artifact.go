package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/report"
	"repro/internal/stats"
)

// Artifact is the canonical JSON projection of one scenario's
// aggregates, written one file per scenario for cross-run diffing.
// Every collection is a sorted slice (never a Go map with
// iteration-order leakage), so two runs of the same (spec, seed,
// scale) produce byte-identical files — the bit-identity contract
// TestMatrixMatchesSolo asserts through this encoding.
type Artifact struct {
	Scenario    string `json:"scenario"`
	Description string `json:"description,omitempty"`
	Seed        int64  `json:"seed"`
	// SetupSeed is the derived stream the setup phase drew from (see
	// SetupSeedFor) — with it, the scenario reproduces standalone.
	// Warm- and cold-started runs record the same value; whether the
	// setup was simulated or forked from a snapshot never reaches the
	// artifact.
	SetupSeed int64 `json:"setup_seed"`
	Shards    int   `json:"shards"`
	Scale     int   `json:"scale"`

	Overview analysis.Overview `json:"overview"`

	Classes   classCountsJSON  `json:"classes"`
	PerOutlet []outletClasses  `json:"per_outlet"`
	Durations []sketchSeries   `json:"duration_cdfs_hours"`
	TimeTo    []sketchSeries   `json:"time_to_access_cdfs_days"`
	Timeline  []timelineRow    `json:"timeline_10d_buckets"`
	Radii     []radiusRow      `json:"median_radii_km"`
	SysConfig []sysConfigRow   `json:"system_config"`
	Cases     caseStudyCounter `json:"case_studies"`

	// Defender is the C3 detection race, one row per leak channel. It
	// is absent when the run armed no defender, so such artifacts keep
	// their bytes.
	Defender []defenderRow `json:"defender,omitempty"`
}

type classCountsJSON struct {
	Total      int `json:"total"`
	Curious    int `json:"curious"`
	GoldDigger int `json:"gold_digger"`
	Spammer    int `json:"spammer"`
	Hijacker   int `json:"hijacker"`
}

type outletClasses struct {
	Outlet string `json:"outlet"`
	classCountsJSON
}

type sketchSeries struct {
	Key    string    `json:"key"`
	N      int       `json:"n"`
	Probes []float64 `json:"probes"`
	CDF    []float64 `json:"cdf"`
}

type timelineRow struct {
	Outlet string `json:"outlet"`
	Bucket int    `json:"bucket"`
	Count  int    `json:"count"`
}

type radiusRow struct {
	Region   string  `json:"region"`
	Outlet   string  `json:"outlet"`
	Hint     string  `json:"hint"`
	N        int     `json:"n"`
	MedianKm float64 `json:"median_km"`
}

type sysConfigRow struct {
	Outlet   string `json:"outlet"`
	Accesses int    `json:"accesses"`
	EmptyUA  int    `json:"empty_ua"`
	Android  int    `json:"android"`
	Desktop  int    `json:"desktop"`
}

type caseStudyCounter struct {
	Blackmailers int `json:"blackmailers"`
	Inquiries    int `json:"inquiries"`
}

// defenderRow is report.DefenderTally in artifact form. A median is
// omitted when no account of the channel was detected (or exploited).
type defenderRow struct {
	Channel            string   `json:"channel"`
	Accounts           int      `json:"accounts"`
	Detected           int      `json:"detected"`
	Exploited          int      `json:"exploited"`
	RacesWon           int      `json:"races_won"`
	MedianDetectHours  *float64 `json:"median_detect_hours,omitempty"`
	MedianExploitHours *float64 `json:"median_exploit_hours,omitempty"`
}

// medianHours converts a tally's median gap to hours; nil for the -1
// "no account got there" marker.
func medianHours(d time.Duration) *float64 {
	if d < 0 {
		return nil
	}
	h := d.Hours()
	return &h
}

func toClassCounts(c analysis.ClassCounts) classCountsJSON {
	return classCountsJSON{
		Total: c.Total, Curious: c.Curious, GoldDigger: c.GoldDigger,
		Spammer: c.Spammer, Hijacker: c.Hijacker,
	}
}

func toSeries(key string, sk *stats.ProbeSketch) sketchSeries {
	s := sketchSeries{Key: key, N: sk.N()}
	for i, p := range sk.Probes() {
		s.Probes = append(s.Probes, p)
		s.CDF = append(s.CDF, sk.Frac(i))
	}
	return s
}

// BuildArtifact projects a successful result into its artifact form.
func BuildArtifact(r *Result) (Artifact, error) {
	if r == nil || r.Err != nil || r.Agg == nil {
		return Artifact{}, fmt.Errorf("scenario: no aggregates to encode")
	}
	agg := r.Agg
	a := Artifact{
		Scenario:    r.Spec.Name,
		Description: r.Spec.Description,
		Seed:        r.Seed,
		SetupSeed:   r.SetupSeed,
		Shards:      r.Shards,
		Scale:       r.Scale,
		Overview:    agg.Overview(),
		Classes:     toClassCounts(agg.Classes),
		Cases:       caseStudyCounter{Blackmailers: r.Blackmailers, Inquiries: r.Inquiries},
	}

	outlets := make([]string, 0, len(agg.PerOutlet))
	for o := range agg.PerOutlet {
		outlets = append(outlets, string(o))
	}
	sort.Strings(outlets)
	for _, o := range outlets {
		a.PerOutlet = append(a.PerOutlet, outletClasses{
			Outlet:          o,
			classCountsJSON: toClassCounts(agg.PerOutlet[analysis.Outlet(o)]),
		})
	}

	classes := make([]string, 0, len(agg.Durations))
	for k := range agg.Durations {
		classes = append(classes, k)
	}
	sort.Strings(classes)
	for _, k := range classes {
		a.Durations = append(a.Durations, toSeries(k, agg.Durations[k]))
	}

	ttaOutlets := make([]string, 0, len(agg.TimeToAccess))
	for o := range agg.TimeToAccess {
		ttaOutlets = append(ttaOutlets, string(o))
	}
	sort.Strings(ttaOutlets)
	for _, o := range ttaOutlets {
		a.TimeTo = append(a.TimeTo, toSeries(o, agg.TimeToAccess[analysis.Outlet(o)]))
	}

	tlOutlets := make([]string, 0, len(agg.Timeline))
	for o := range agg.Timeline {
		tlOutlets = append(tlOutlets, string(o))
	}
	sort.Strings(tlOutlets)
	for _, o := range tlOutlets {
		buckets := agg.Timeline[analysis.Outlet(o)]
		keys := make([]int, 0, len(buckets))
		for b := range buckets {
			keys = append(keys, b)
		}
		sort.Ints(keys)
		for _, b := range keys {
			a.Timeline = append(a.Timeline, timelineRow{Outlet: o, Bucket: b, Count: buckets[b]})
		}
	}

	for _, region := range []analysis.Hint{analysis.HintUK, analysis.HintUS} {
		for _, row := range agg.MedianRadii(region) {
			a.Radii = append(a.Radii, radiusRow{
				Region: string(region), Outlet: string(row.Group.Outlet),
				Hint: string(row.Group.Hint), N: row.N, MedianKm: row.MedianKm,
			})
		}
	}

	for _, row := range agg.ConfigRows() {
		a.SysConfig = append(a.SysConfig, sysConfigRow{
			Outlet: string(row.Outlet), Accesses: row.Accesses,
			EmptyUA: row.EmptyUA, Android: row.Android, Desktop: row.Desktop,
		})
	}

	for _, t := range report.DefenderTallies(DefenderRows(r.Defender)) {
		a.Defender = append(a.Defender, defenderRow{
			Channel: t.Channel, Accounts: t.Accounts, Detected: t.Detected,
			Exploited: t.Exploited, RacesWon: t.Won,
			MedianDetectHours:  medianHours(t.MedianDetect),
			MedianExploitHours: medianHours(t.MedianExploit),
		})
	}
	return a, nil
}

// Encode renders the artifact as indented JSON with a trailing
// newline — the canonical on-disk form.
func (a Artifact) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteArtifacts writes one <name>.json per successful result into
// dir (created if missing) and returns the paths written. Failed
// scenarios are skipped — their error is on the Result.
func WriteArtifacts(dir string, results []*Result) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var paths []string
	for _, r := range results {
		if r == nil || r.Err != nil {
			continue
		}
		art, err := BuildArtifact(r)
		if err != nil {
			return paths, err
		}
		data, err := art.Encode()
		if err != nil {
			return paths, fmt.Errorf("scenario %s: %w", r.Spec.Name, err)
		}
		path := filepath.Join(dir, r.Spec.Name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return paths, fmt.Errorf("scenario %s: %w", r.Spec.Name, err)
		}
		paths = append(paths, path)
	}
	return paths, nil
}
