package scenario

import (
	"fmt"
	"regexp"
	"time"

	"repro/internal/analysis"
	"repro/internal/attacker"
	"repro/internal/corpus"
	"repro/internal/honeynet"
	"repro/internal/outlets"
)

// Spec is one declarative experiment variant. The zero value of every
// field means "the paper's choice", so the baseline scenario is the
// empty spec with a name; each field varies exactly one axis of the
// deployment. Specs marshal 1:1 to the JSON scenario files.
type Spec struct {
	// Name identifies the scenario in reports and artifact filenames
	// (lowercase letters, digits, ".", "_", "-").
	Name string `json:"name"`
	// Description is a one-line human summary for the preset catalog.
	Description string `json:"description,omitempty"`
	// Seed pins the scenario to a fixed seed; unset lets the matrix
	// derive a stable per-scenario seed from its base seed.
	Seed *int64 `json:"seed,omitempty"`
	// Days is the observation window (paper: 236).
	Days int `json:"days,omitempty"`
	// LeakDate is the leak day, "YYYY-MM-DD" (paper: 2015-06-25).
	// Cor & Sood 2018 motivate varying leak exposure over time.
	LeakDate string `json:"leak_date,omitempty"`
	// TimezoneOffsetHours shifts the experiment clock's time-of-day,
	// simulating decoys "living" in another timezone (−14..+14).
	TimezoneOffsetHours int `json:"timezone_offset_hours,omitempty"`
	// MailboxSize is the seeded message count per account (paper: 90).
	MailboxSize int `json:"mailbox_size,omitempty"`
	// ScanEvery/ScrapeEvery are Go durations ("10m", "1h") for the
	// Apps-Script scan and activity-page scrape cadences.
	ScanEvery   string `json:"scan_every,omitempty"`
	ScrapeEvery string `json:"scrape_every,omitempty"`
	// DisableCaseStudies skips the §4.7 scripted scenarios.
	DisableCaseStudies bool `json:"disable_case_studies,omitempty"`
	// Locale selects the decoy-identity locale (corpus.LocaleNames;
	// "" = English, the paper's population).
	Locale string `json:"locale,omitempty"`
	// DefenderCadence enables the C3 defender loop at this check
	// cadence (a Go duration, e.g. "24h"; "" disables — the paper's
	// deployment had no defender). See honeynet.Config.DefenderCadence.
	DefenderCadence string `json:"defender_cadence,omitempty"`
	// C3BucketBits sets the k-anonymity prefix width of the C3 index
	// (1..32; 0 selects the engine default). Only meaningful with
	// defender_cadence set.
	C3BucketBits int `json:"c3_bucket_bits,omitempty"`
	// C3Variants turns on MIGP-style variant indexing in the C3 index.
	C3Variants bool `json:"c3_variants,omitempty"`
	// Plan overrides the deployment plan (empty = the Table 1 plan).
	Plan []BlockSpec `json:"plan,omitempty"`
	// Sites overrides the outlet catalogue (empty = the paper's
	// venues, outlets.DefaultSites).
	Sites []SiteSpec `json:"sites,omitempty"`
	// Calibration overrides attacker-population parameters per leak
	// channel: channel ("paste", "paste-ru", "forum", "malware") →
	// snake_case Population field → value, e.g.
	// calibration["paste"]["spammer_prob"] = 0.15.
	Calibration map[string]map[string]float64 `json:"calibration,omitempty"`
}

// BlockSpec is one plan block (one Table 1 row) in declarative form.
type BlockSpec struct {
	ID      int    `json:"id"`
	Count   int    `json:"count"`
	Channel string `json:"channel"`
	Hint    string `json:"hint,omitempty"`
	Label   string `json:"label,omitempty"`
}

// SiteSpec is one leak venue in declarative form (see outlets.Site).
type SiteSpec struct {
	Name            string  `json:"name"`
	Kind            string  `json:"kind"`
	Russian         bool    `json:"russian,omitempty"`
	PickupMeanDays  float64 `json:"pickup_mean_days"`
	PickupDelayDays float64 `json:"pickup_delay_days,omitempty"`
	MeanPickups     float64 `json:"mean_pickups"`
	InquiryRate     float64 `json:"inquiry_rate,omitempty"`
}

var nameRe = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]*$`)

// knownChannels are the leak channels calibration and plan blocks may
// name.
var knownChannels = map[string]analysis.Outlet{
	"paste":    analysis.OutletPaste,
	"paste-ru": analysis.OutletPasteRussian,
	"forum":    analysis.OutletForum,
	"malware":  analysis.OutletMalware,
}

// Validate checks every declarative field; a valid spec always
// compiles to a runnable honeynet.Config.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if !nameRe.MatchString(s.Name) {
		return fmt.Errorf("scenario: bad name %q (want lowercase letters, digits, '.', '_', '-')", s.Name)
	}
	if s.Days < 0 {
		return fmt.Errorf("scenario %s: negative days %d", s.Name, s.Days)
	}
	if s.LeakDate != "" {
		if _, err := time.Parse("2006-01-02", s.LeakDate); err != nil {
			return fmt.Errorf("scenario %s: bad leak_date %q (want YYYY-MM-DD)", s.Name, s.LeakDate)
		}
	}
	if s.TimezoneOffsetHours < -14 || s.TimezoneOffsetHours > 14 {
		return fmt.Errorf("scenario %s: timezone_offset_hours %d out of range [-14, 14]", s.Name, s.TimezoneOffsetHours)
	}
	if s.MailboxSize < 0 {
		return fmt.Errorf("scenario %s: negative mailbox_size %d", s.Name, s.MailboxSize)
	}
	for _, d := range []struct{ field, v string }{{"scan_every", s.ScanEvery}, {"scrape_every", s.ScrapeEvery}, {"defender_cadence", s.DefenderCadence}} {
		if d.v == "" {
			continue
		}
		dur, err := time.ParseDuration(d.v)
		if err != nil || dur <= 0 {
			return fmt.Errorf("scenario %s: bad %s %q (want a positive Go duration)", s.Name, d.field, d.v)
		}
	}
	if s.Locale != "" {
		if _, ok := corpus.LocaleByName(s.Locale); !ok {
			return fmt.Errorf("scenario %s: unknown locale %q (have %v)", s.Name, s.Locale, corpus.LocaleNames())
		}
	}
	if s.C3BucketBits < 0 || s.C3BucketBits > 32 {
		return fmt.Errorf("scenario %s: c3_bucket_bits %d out of range [0, 32]", s.Name, s.C3BucketBits)
	}
	if s.DefenderCadence == "" && (s.C3BucketBits != 0 || s.C3Variants) {
		return fmt.Errorf("scenario %s: c3_bucket_bits/c3_variants need defender_cadence set", s.Name)
	}
	plan, err := s.plan()
	if err != nil {
		return err
	}
	if err := honeynet.ValidatePlan(plan); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	sites, err := s.sites()
	if err != nil {
		return err
	}
	if err := s.checkCoverage(plan, sites); err != nil {
		return err
	}
	return s.checkCalibration()
}

// plan converts the declarative blocks (empty = Table 1).
func (s *Spec) plan() ([]honeynet.GroupSpec, error) {
	if len(s.Plan) == 0 {
		return honeynet.Table1Plan(), nil
	}
	out := make([]honeynet.GroupSpec, 0, len(s.Plan))
	for i, b := range s.Plan {
		ch, ok := knownChannels[b.Channel]
		if !ok {
			return nil, fmt.Errorf("scenario %s: plan block %d has unknown channel %q", s.Name, i, b.Channel)
		}
		switch analysis.Hint(b.Hint) {
		case analysis.HintNone, analysis.HintUK, analysis.HintUS:
		default:
			return nil, fmt.Errorf("scenario %s: plan block %d has unknown hint %q", s.Name, i, b.Hint)
		}
		label := b.Label
		if label == "" {
			label = fmt.Sprintf("%s block %d", b.Channel, i)
		}
		out = append(out, honeynet.GroupSpec{
			ID: b.ID, Count: b.Count, Channel: ch, Hint: analysis.Hint(b.Hint), Label: label,
		})
	}
	return out, nil
}

// sites converts the declarative venues (empty = the paper's).
func (s *Spec) sites() ([]*outlets.Site, error) {
	if len(s.Sites) == 0 {
		return outlets.DefaultSites(), nil
	}
	out := make([]*outlets.Site, 0, len(s.Sites))
	seen := map[string]bool{}
	for i, v := range s.Sites {
		if v.Name == "" {
			return nil, fmt.Errorf("scenario %s: site %d has no name", s.Name, i)
		}
		if seen[v.Name] {
			return nil, fmt.Errorf("scenario %s: duplicate site %q", s.Name, v.Name)
		}
		seen[v.Name] = true
		var kind outlets.Kind
		switch v.Kind {
		case "paste":
			kind = outlets.KindPaste
		case "forum":
			kind = outlets.KindForum
		default:
			return nil, fmt.Errorf("scenario %s: site %q has unknown kind %q (want paste or forum)", s.Name, v.Name, v.Kind)
		}
		if v.PickupMeanDays <= 0 {
			return nil, fmt.Errorf("scenario %s: site %q needs pickup_mean_days > 0", s.Name, v.Name)
		}
		// A zero pickup mean would silently drop every credential
		// posted to the site — the condition checkCoverage exists to
		// reject, so it must fail here too.
		if v.MeanPickups <= 0 {
			return nil, fmt.Errorf("scenario %s: site %q needs mean_pickups > 0", s.Name, v.Name)
		}
		if v.PickupDelayDays < 0 || v.InquiryRate < 0 || v.InquiryRate > 1 {
			return nil, fmt.Errorf("scenario %s: site %q has out-of-range parameters", s.Name, v.Name)
		}
		out = append(out, &outlets.Site{
			Name: v.Name, Kind: kind, Russian: v.Russian,
			PickupMeanDays: v.PickupMeanDays, PickupDelayDays: v.PickupDelayDays,
			MeanPickups: v.MeanPickups, InquiryRate: v.InquiryRate,
		})
	}
	return out, nil
}

// checkCoverage rejects plans that leak through channels no site
// serves — the credentials would silently never be picked up.
func (s *Spec) checkCoverage(plan []honeynet.GroupSpec, sites []*outlets.Site) error {
	have := map[analysis.Outlet]bool{analysis.OutletMalware: true} // malware needs no site
	for _, site := range sites {
		switch {
		case site.Kind == outlets.KindPaste && site.Russian:
			have[analysis.OutletPasteRussian] = true
		case site.Kind == outlets.KindPaste:
			have[analysis.OutletPaste] = true
		case site.Kind == outlets.KindForum:
			have[analysis.OutletForum] = true
		}
	}
	for _, g := range plan {
		if !have[g.Channel] {
			return fmt.Errorf("scenario %s: plan leaks through %q but no configured site serves that channel", s.Name, g.Channel)
		}
	}
	return nil
}

// checkCalibration validates the override map's channels, fields and
// ranges.
func (s *Spec) checkCalibration() error {
	for channel, fields := range s.Calibration {
		if _, ok := knownChannels[channel]; !ok {
			return fmt.Errorf("scenario %s: calibration for unknown channel %q", s.Name, channel)
		}
		for field, v := range fields {
			var probe attacker.Population
			if err := setPopulationField(&probe, field, v); err != nil {
				return fmt.Errorf("scenario %s: %w", s.Name, err)
			}
		}
	}
	return nil
}

// populations builds the attacker calibration with overrides applied
// on top of the paper defaults.
func (s *Spec) populations() (*attacker.Populations, error) {
	if len(s.Calibration) == 0 {
		return nil, nil // engine default
	}
	pops := attacker.DefaultPopulations()
	for channel, fields := range s.Calibration {
		var p *attacker.Population
		switch channel {
		case "paste":
			p = &pops.Paste
		case "paste-ru":
			p = &pops.PasteRussian
		case "forum":
			p = &pops.Forum
		case "malware":
			p = &pops.Malware
		default:
			return nil, fmt.Errorf("scenario %s: calibration for unknown channel %q", s.Name, channel)
		}
		for field, v := range fields {
			if err := setPopulationField(p, field, v); err != nil {
				return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
			}
		}
	}
	return &pops, nil
}

// setPopulationField applies one snake_case override. Probability
// fields must lie in [0,1]; rate/size fields must be non-negative.
func setPopulationField(p *attacker.Population, field string, v float64) error {
	prob := func(dst *float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("calibration %s=%g out of range [0,1]", field, v)
		}
		*dst = v
		return nil
	}
	nonneg := func(dst *float64) error {
		if v < 0 {
			return fmt.Errorf("calibration %s=%g must be non-negative", field, v)
		}
		*dst = v
		return nil
	}
	switch field {
	case "gold_digger_prob":
		return prob(&p.GoldDiggerProb)
	case "hijacker_prob":
		return prob(&p.HijackerProb)
	case "spammer_prob":
		return prob(&p.SpammerProb)
	case "tor_prob":
		return prob(&p.TorProb)
	case "proxy_prob":
		return prob(&p.ProxyProb)
	case "empty_ua_prob":
		return prob(&p.EmptyUAProb)
	case "android_prob":
		return prob(&p.AndroidProb)
	case "location_malleability":
		return prob(&p.LocationMalleability)
	case "return_prob":
		return prob(&p.ReturnProb)
	case "return_visits_mu":
		return nonneg(&p.ReturnVisitsMu)
	case "return_gap_days":
		return nonneg(&p.ReturnGapDays)
	case "session_minutes":
		return nonneg(&p.SessionMinutes)
	case "infected_machine_prob":
		return prob(&p.InfectedMachineProb)
	case "tos_violation_prob":
		return prob(&p.TosViolationProb)
	default:
		return fmt.Errorf("calibration names unknown field %q", field)
	}
}

// Config compiles the spec into a runnable honeynet.Config. The
// passed seed is used unless the spec pins its own; shards and scale
// are execution parameters (they never change reported numbers, see
// TestShardCountInvariance) and so live outside the spec.
func (s *Spec) Config(seed int64, shards, scale int) (honeynet.Config, error) {
	if err := s.Validate(); err != nil {
		return honeynet.Config{}, err
	}
	if s.Seed != nil {
		seed = *s.Seed
	}
	plan, err := s.plan()
	if err != nil {
		return honeynet.Config{}, err
	}
	sites, err := s.sites()
	if err != nil {
		return honeynet.Config{}, err
	}
	pops, err := s.populations()
	if err != nil {
		return honeynet.Config{}, err
	}
	cfg := honeynet.Config{
		Seed:               seed,
		Plan:               plan,
		Sites:              sites,
		Populations:        pops,
		MailboxSize:        s.MailboxSize,
		DisableCaseStudies: s.DisableCaseStudies,
		Shards:             shards,
		ScaleFactor:        scale,
	}
	if s.Days > 0 {
		cfg.Duration = time.Duration(s.Days) * 24 * time.Hour
	}
	if s.LeakDate != "" {
		t, err := time.Parse("2006-01-02", s.LeakDate)
		if err != nil {
			return honeynet.Config{}, fmt.Errorf("scenario %s: bad leak_date: %w", s.Name, err)
		}
		cfg.Start = t
	}
	if s.TimezoneOffsetHours != 0 {
		if cfg.Start.IsZero() {
			cfg.Start = honeynet.DefaultStart()
		}
		cfg.Start = cfg.Start.Add(time.Duration(s.TimezoneOffsetHours) * time.Hour)
	}
	if s.ScanEvery != "" {
		d, err := time.ParseDuration(s.ScanEvery)
		if err != nil {
			return honeynet.Config{}, fmt.Errorf("scenario %s: bad scan_every: %w", s.Name, err)
		}
		cfg.ScanInterval = d
	}
	if s.ScrapeEvery != "" {
		d, err := time.ParseDuration(s.ScrapeEvery)
		if err != nil {
			return honeynet.Config{}, fmt.Errorf("scenario %s: bad scrape_every: %w", s.Name, err)
		}
		cfg.ScrapeInterval = d
	}
	if s.Locale != "" {
		loc, ok := corpus.LocaleByName(s.Locale)
		if !ok {
			return honeynet.Config{}, fmt.Errorf("scenario %s: unknown locale %q", s.Name, s.Locale)
		}
		cfg.Locale = &loc
	}
	if s.DefenderCadence != "" {
		d, err := time.ParseDuration(s.DefenderCadence)
		if err != nil {
			return honeynet.Config{}, fmt.Errorf("scenario %s: bad defender_cadence: %w", s.Name, err)
		}
		cfg.DefenderCadence = d
		cfg.C3BucketBits = s.C3BucketBits
		cfg.C3Variants = s.C3Variants
	}
	return cfg, nil
}
