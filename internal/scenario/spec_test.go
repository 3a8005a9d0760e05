package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/honeynet"
)

// TestPresetsLoadAndValidate: every embedded preset parses through
// the JSON loader, validates, and compiles to a honeynet config —
// the catalog can never ship a broken scenario.
func TestPresetsLoadAndValidate(t *testing.T) {
	names := PresetNames()
	if len(names) < 5 {
		t.Fatalf("want at least 5 presets, have %d: %v", len(names), names)
	}
	for _, name := range names {
		spec, err := Preset(name)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if spec.Name != name {
			t.Fatalf("preset file %s declares name %q (must match filename)", name, spec.Name)
		}
		if spec.Description == "" {
			t.Fatalf("preset %s has no description (the catalog table needs one)", name)
		}
		if _, err := spec.Config(1, 2, 1); err != nil {
			t.Fatalf("preset %s does not compile: %v", name, err)
		}
	}
}

// TestBaselinePresetIsThePaper: the baseline preset compiles to the
// paper's exact configuration (Table 1 plan, defaults everywhere).
func TestBaselinePresetIsThePaper(t *testing.T) {
	spec, err := Preset("baseline")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config(42, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := honeynet.Table1Plan()
	if len(cfg.Plan) != len(want) {
		t.Fatalf("baseline plan has %d blocks, Table 1 has %d", len(cfg.Plan), len(want))
	}
	for i := range want {
		if cfg.Plan[i] != want[i] {
			t.Fatalf("baseline plan block %d = %+v, want %+v", i, cfg.Plan[i], want[i])
		}
	}
	if cfg.Populations != nil || cfg.Locale != nil || !cfg.Start.IsZero() || cfg.Duration != 0 {
		t.Fatalf("baseline overrides an axis it should not: %+v", cfg)
	}
}

func TestSpecValidation(t *testing.T) {
	valid := func() Spec { return Spec{Name: "ok"} }
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"missing name", func(s *Spec) { s.Name = "" }, "missing name"},
		{"bad name", func(s *Spec) { s.Name = "Bad Name" }, "bad name"},
		{"negative days", func(s *Spec) { s.Days = -1 }, "negative days"},
		{"bad leak date", func(s *Spec) { s.LeakDate = "June 25" }, "bad leak_date"},
		{"tz out of range", func(s *Spec) { s.TimezoneOffsetHours = 20 }, "out of range"},
		{"bad scan duration", func(s *Spec) { s.ScanEvery = "ten minutes" }, "bad scan_every"},
		{"zero scrape duration", func(s *Spec) { s.ScrapeEvery = "0s" }, "bad scrape_every"},
		{"unknown locale", func(s *Spec) { s.Locale = "tlh" }, "unknown locale"},
		{"unknown channel", func(s *Spec) {
			s.Plan = []BlockSpec{{ID: 1, Count: 5, Channel: "darkweb"}}
		}, "unknown channel"},
		{"unknown hint", func(s *Spec) {
			s.Plan = []BlockSpec{{ID: 1, Count: 5, Channel: "paste", Hint: "mars"}}
		}, "unknown hint"},
		{"zero count", func(s *Spec) {
			s.Plan = []BlockSpec{{ID: 1, Count: 0, Channel: "paste"}}
		}, "count"},
		{"malware hint", func(s *Spec) {
			s.Plan = []BlockSpec{{ID: 5, Count: 5, Channel: "malware", Hint: "uk"}}
		}, "malware"},
		{"site without name", func(s *Spec) {
			s.Sites = []SiteSpec{{Kind: "paste", PickupMeanDays: 1, MeanPickups: 1}}
		}, "no name"},
		{"duplicate site", func(s *Spec) {
			s.Sites = []SiteSpec{
				{Name: "x", Kind: "paste", PickupMeanDays: 1, MeanPickups: 1},
				{Name: "x", Kind: "forum", PickupMeanDays: 1, MeanPickups: 1},
			}
		}, "duplicate site"},
		{"bad site kind", func(s *Spec) {
			s.Sites = []SiteSpec{{Name: "x", Kind: "irc", PickupMeanDays: 1, MeanPickups: 1}}
		}, "unknown kind"},
		{"zero pickup mean", func(s *Spec) {
			s.Sites = []SiteSpec{{Name: "x", Kind: "paste", MeanPickups: 1}}
		}, "pickup_mean_days"},
		{"zero mean pickups", func(s *Spec) {
			// Poisson(0) pickups would silently strand every credential
			// posted to the site.
			s.Sites = []SiteSpec{{Name: "x", Kind: "paste", PickupMeanDays: 1}}
		}, "mean_pickups"},
		{"uncovered channel", func(s *Spec) {
			// Plan leaks to forums but the only site is a paste site.
			s.Plan = []BlockSpec{{ID: 3, Count: 5, Channel: "forum"}}
			s.Sites = []SiteSpec{{Name: "x", Kind: "paste", PickupMeanDays: 1, MeanPickups: 1}}
		}, "no configured site serves"},
		{"unknown calibration channel", func(s *Spec) {
			s.Calibration = map[string]map[string]float64{"irc": {"tor_prob": 0.5}}
		}, "unknown channel"},
		{"unknown calibration field", func(s *Spec) {
			s.Calibration = map[string]map[string]float64{"paste": {"luck": 0.5}}
		}, "unknown field"},
		{"probability out of range", func(s *Spec) {
			s.Calibration = map[string]map[string]float64{"paste": {"tor_prob": 1.5}}
		}, "out of range"},
		{"negative rate", func(s *Spec) {
			s.Calibration = map[string]map[string]float64{"forum": {"return_gap_days": -2}}
		}, "non-negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", s)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	s := valid()
	if err := s.Validate(); err != nil {
		t.Fatalf("minimal spec rejected: %v", err)
	}
}

// TestSpecConfigAppliesOverrides: every declarative axis lands on the
// honeynet.Config field it claims to control.
func TestSpecConfigAppliesOverrides(t *testing.T) {
	seed := int64(99)
	s := Spec{
		Name:                "full",
		Seed:                &seed,
		Days:                90,
		LeakDate:            "2016-01-10",
		TimezoneOffsetHours: 3,
		MailboxSize:         30,
		ScanEvery:           "30m",
		ScrapeEvery:         "2h",
		DisableCaseStudies:  true,
		Locale:              "de",
		Plan:                []BlockSpec{{ID: 1, Count: 8, Channel: "paste", Hint: "uk"}},
		Calibration:         map[string]map[string]float64{"paste": {"tor_prob": 0.9}},
	}
	cfg, err := s.Config(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 99 {
		t.Fatalf("spec seed not honoured: %d", cfg.Seed)
	}
	if cfg.Duration != 90*24*time.Hour {
		t.Fatalf("days not applied: %v", cfg.Duration)
	}
	wantStart := time.Date(2016, 1, 10, 3, 0, 0, 0, time.UTC)
	if !cfg.Start.Equal(wantStart) {
		t.Fatalf("leak date + tz offset = %v, want %v", cfg.Start, wantStart)
	}
	if cfg.MailboxSize != 30 || cfg.ScanInterval != 30*time.Minute || cfg.ScrapeInterval != 2*time.Hour {
		t.Fatalf("cadence overrides not applied: %+v", cfg)
	}
	if !cfg.DisableCaseStudies {
		t.Fatal("bool toggle not applied")
	}
	if cfg.Locale == nil || cfg.Locale.Name != "de" {
		t.Fatalf("locale not applied: %+v", cfg.Locale)
	}
	if len(cfg.Plan) != 1 || cfg.Plan[0].Channel != analysis.OutletPaste || cfg.Plan[0].Hint != analysis.HintUK {
		t.Fatalf("plan not applied: %+v", cfg.Plan)
	}
	if cfg.Populations == nil || cfg.Populations.Paste.TorProb != 0.9 {
		t.Fatalf("calibration not applied: %+v", cfg.Populations)
	}
	// Untouched channels keep the paper defaults.
	if cfg.Populations.Forum.TorProb != 0.22 {
		t.Fatalf("calibration leaked into forum population: %+v", cfg.Populations.Forum)
	}
	if cfg.Shards != 2 || cfg.ScaleFactor != 3 {
		t.Fatalf("execution parameters not threaded: %+v", cfg)
	}
}

// TestParseJSONRejectsUnknownFields: a typoed axis must fail loudly,
// not silently run the paper default.
func TestParseJSONRejectsUnknownFields(t *testing.T) {
	if _, err := ParseJSON([]byte(`{"name": "x", "daays": 90}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseJSON([]byte(`{"name": "x"} {"name": "y"}`)); err == nil {
		t.Fatal("trailing document accepted")
	}
	// A deleted axis is unknown like any typo: a spec written for an
	// older build fails instead of running without it.
	if _, err := ParseJSON([]byte(`{"name": "x", "visible_scripts": true}`)); err == nil {
		t.Fatal("removed visible_scripts key accepted in JSON")
	}
}

// TestResolve: names hit presets, paths hit files, junk errors.
func TestResolve(t *testing.T) {
	if _, err := Resolve("baseline"); err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve("no-such-preset"); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if _, err := Resolve("/no/such/file.json"); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := Resolve("file.yaml"); err == nil {
		t.Fatal("unsupported extension accepted")
	}
	// JSON is the one spec format; a TOML file is refused by name.
	if _, err := Resolve("spam-wave.toml"); err == nil || !strings.Contains(err.Error(), ".json") {
		t.Fatalf("TOML spec: err = %v, want a refusal naming .json", err)
	}
}

// TestParseJSONStrictInput: an object that names a key twice, at any
// depth, and bytes that are not UTF-8 fail loudly instead of letting
// the last value win or running a mangled string. The same key in
// distinct objects is no duplicate.
func TestParseJSONStrictInput(t *testing.T) {
	for _, c := range []struct {
		name, src string
		want      string // error substring; "" means accepted
	}{
		{"top-level duplicate", `{"name": "x", "days": 30, "days": 90}`, "named twice"},
		{"nested duplicate", `{"name": "x", "calibration": {"paste": {"tor_prob": 0.5, "tor_prob": 0.9}}}`, "named twice"},
		{"duplicate in one plan element", `{"name": "x", "plan": [{"id": 1, "count": 5, "count": 6, "channel": "paste"}]}`, "named twice"},
		// encoding/json matches field names case-insensitively, so
		// "Days" sets the same field as "days".
		{"duplicate differing in case", `{"name": "x", "days": 30, "Days": 90}`, "named twice"},
		{"not utf8", "{\"name\": \"x\", \"description\": \"caf\xe9\"}", "UTF-8"},
		{"two plan blocks", `{"name": "x", "plan": [{"id": 1, "count": 5, "channel": "paste"}, {"id": 3, "count": 5, "channel": "forum"}]}`, ""},
		{"spammer_prob in paste and forum", `{"name": "x", "calibration": {"paste": {"spammer_prob": 0.1}, "forum": {"spammer_prob": 0.2}}}`, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseJSON([]byte(c.src))
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case c.want != "" && err == nil:
				t.Fatal("accepted")
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestPresetFilesAreCanonical: each embedded preset file is the
// indented marshal of the Spec it decodes to, so no preset spells out
// a default or orders its fields differently from Spec.
func TestPresetFilesAreCanonical(t *testing.T) {
	for _, name := range PresetNames() {
		data, err := presetFS.ReadFile("presets/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParseJSON(data)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		want, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(data, want) {
			t.Errorf("presets/%s.json is not its spec's indented marshal; want:\n%s", name, want)
		}
	}
}

// TestEverySpecFieldMovesAnOutput pins the rule that every settable
// axis of a Spec moves something a run reports. Each row changes one
// field of a 30-day, scale-1 baseline at a pinned seed; the canonical
// artifact plus the rendered report must then differ from the
// baseline's. The C3 knobs only shape index size and query cost —
// attackers replay the exact leaked password, so variants never change
// a detection — and each names the metric it moves instead, from a
// defender-armed baseline. A Spec field without a row fails the test.
func TestEverySpecFieldMovesAnOutput(t *testing.T) {
	const seed, resamples = 42, 50
	opts := Options{Shards: 1, Scale: 1, Workers: 2}
	base := Spec{Name: "probe", Days: 30}
	armed := base
	armed.DefenderCadence = "24h"

	run := func(t *testing.T, s Spec) (*Result, []byte, string) {
		t.Helper()
		r := Run(s, seed, opts)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		art, err := BuildArtifact(r)
		if err != nil {
			t.Fatal(err)
		}
		data, err := art.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return r, data, RenderSections(r, resamples)
	}
	bucketBits := func(t *testing.T, s Spec) int {
		t.Helper()
		cfg, err := s.Config(seed, opts.Shards, opts.Scale)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := honeynet.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return exp.C3Stats().BucketBits
	}

	pinned := int64(7)
	rows := []struct {
		field string
		set   func(*Spec)
		// costOnly rows start from the armed baseline and check their
		// named metric instead of the outputs.
		costOnly func(t *testing.T, s Spec)
	}{
		{field: "Name", set: func(s *Spec) { s.Name = "probe-renamed" }},
		{field: "Description", set: func(s *Spec) { s.Description = "a described probe" }},
		{field: "Seed", set: func(s *Spec) { s.Seed = &pinned }},
		{field: "Days", set: func(s *Spec) { s.Days = 45 }},
		{field: "LeakDate", set: func(s *Spec) { s.LeakDate = "2015-09-01" }},
		{field: "TimezoneOffsetHours", set: func(s *Spec) { s.TimezoneOffsetHours = 5 }},
		{field: "MailboxSize", set: func(s *Spec) { s.MailboxSize = 40 }},
		{field: "ScanEvery", set: func(s *Spec) { s.ScanEvery = "6h" }},
		{field: "ScrapeEvery", set: func(s *Spec) { s.ScrapeEvery = "6h" }},
		{field: "DisableCaseStudies", set: func(s *Spec) { s.DisableCaseStudies = true }},
		{field: "Locale", set: func(s *Spec) { s.Locale = "de" }},
		{field: "DefenderCadence", set: func(s *Spec) { s.DefenderCadence = "24h" }},
		{field: "C3BucketBits", set: func(s *Spec) { s.C3BucketBits = 8 }, costOnly: func(t *testing.T, s Spec) {
			if got, want := bucketBits(t, s), bucketBits(t, armed); got == want {
				t.Fatalf("C3Stats().BucketBits = %d with c3_bucket_bits %d, the armed baseline's too", got, s.C3BucketBits)
			}
		}},
		{field: "C3Variants", set: func(s *Spec) { s.C3Variants = true }, costOnly: func(t *testing.T, s Spec) {
			got, _, _ := run(t, s)
			want, _, _ := run(t, armed)
			if got.C3Indexed <= want.C3Indexed {
				t.Fatalf("C3Indexed = %d with c3_variants, want more than the armed baseline's %d", got.C3Indexed, want.C3Indexed)
			}
		}},
		{field: "Plan", set: func(s *Spec) { s.Plan = []BlockSpec{{ID: 1, Count: 20, Channel: "paste"}} }},
		{field: "Sites", set: func(s *Spec) {
			s.Sites = []SiteSpec{
				{Name: "fast-paste.example", Kind: "paste", PickupMeanDays: 1, MeanPickups: 6},
				{Name: "ru-paste.example", Kind: "paste", Russian: true, PickupMeanDays: 5, MeanPickups: 2},
				{Name: "forum.example", Kind: "forum", PickupMeanDays: 3, MeanPickups: 4, InquiryRate: 0.5},
			}
		}},
		{field: "Calibration", set: func(s *Spec) {
			s.Calibration = map[string]map[string]float64{"paste": {"spammer_prob": 0.9}}
		}},
	}

	covered := map[string]bool{}
	for _, row := range rows {
		covered[row.field] = true
	}
	specType := reflect.TypeOf(Spec{})
	for i := 0; i < specType.NumField(); i++ {
		if name := specType.Field(i).Name; !covered[name] {
			t.Errorf("Spec.%s has no row: show the output it moves, or delete the field", name)
		}
	}

	_, baseArt, baseReport := run(t, base)
	for _, row := range rows {
		t.Run(row.field, func(t *testing.T) {
			if row.costOnly != nil {
				s := armed
				row.set(&s)
				row.costOnly(t, s)
				return
			}
			s := base
			row.set(&s)
			_, art, rep := run(t, s)
			if bytes.Equal(art, baseArt) && rep == baseReport {
				t.Fatalf("setting %s changed neither the artifact nor the report", row.field)
			}
			if row.field == "DefenderCadence" && bytes.Equal(art, baseArt) {
				t.Fatal("arming the defender changed the report but not the artifact")
			}
		})
	}
}
