package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzLoadSpec drives the one scenario decoder, ParseJSON, with
// arbitrary bytes. The loader contract under fuzzing: malformed specs
// must return an error — UTF-8, duplicate key, decode or validation —
// and never panic. Accepted specs must validate (ParseJSON runs
// Validate before returning), so a nil error implies a runnable
// scenario. The canonical form of an accepted spec, its json.Marshal,
// must be accepted again and marshal back to the same bytes, so the
// duplicate-key walk can never refuse what the program itself writes.
// Bytes are compared, not values: an empty calibration decodes back
// as nil.
func FuzzLoadSpec(f *testing.F) {
	// Well-formed seeds: every embedded preset file.
	for _, name := range PresetNames() {
		data, err := presetFS.ReadFile("presets/" + name + ".json")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name": "j", "days": 30, "calibration": {"paste": {"tor_prob": 0.5}}}`))
	f.Add([]byte(`{"name": "p", "plan": [{"id": 1, "count": 5, "channel": "paste"}]}`))
	// Malformed seeds steering the fuzzer at the interesting edges.
	f.Add([]byte(`{"name": "x", "plan": [{"id": 1, "count": 0, "channel": "paste"}]}`))
	f.Add([]byte(`{"name": "x", "calibration": {"paste": {"tor_prob": 7}}}`))
	f.Add([]byte(`{"name": "x", "scan_every": "-1h"}`))
	f.Add([]byte(`{"name": "x`))
	f.Add([]byte(`{"sites": [{}]}`))
	f.Add([]byte(`{"name": "x", "unknown_field": 1}`))
	f.Add([]byte(`{"name": "x", "visible_scripts": true}`)) // a deleted key
	f.Add([]byte(`{"a": [1, [2]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseJSON(data)
		if err != nil {
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("ParseJSON returned an invalid spec: %v", verr)
		}
		canon, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ParseJSON(canon)
		if err != nil {
			t.Fatalf("ParseJSON refused the canonical form %s: %v", canon, err)
		}
		recanon, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(recanon, canon) {
			t.Fatalf("canonical form does not round-trip:\n first %s\nsecond %s", canon, recanon)
		}
	})
}
