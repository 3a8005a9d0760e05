package honeynet

import (
	"testing"

	"repro/internal/snapshot"
)

// TestConfigFromSnapshotRefusesCustomConfig: a snapshot cannot carry a
// custom outlet catalogue, attacker calibration or locale, so one taken
// with any of them does not rebuild its config from the snapshot alone.
func TestConfigFromSnapshotRefusesCustomConfig(t *testing.T) {
	st, err := snapshot.Decode(setupSnapshot(t, fastConfig(5)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ConfigFromSnapshot(st); err != nil {
		t.Fatalf("snapshot of the default config refused: %v", err)
	}
	for name, mark := range map[string]func(*snapshot.Config){
		"outlet catalogue":     func(c *snapshot.Config) { c.CustomSites = true },
		"attacker calibration": func(c *snapshot.Config) { c.CustomPopulations = true },
		"locale":               func(c *snapshot.Config) { c.CustomLocale = true },
	} {
		custom := *st
		mark(&custom.Config)
		if _, err := ConfigFromSnapshot(&custom); err == nil {
			t.Errorf("ConfigFromSnapshot accepted a snapshot taken with a custom %s", name)
		}
	}
}
