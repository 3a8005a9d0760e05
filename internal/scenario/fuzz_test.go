package scenario

import "testing"

// FuzzLoadSpec drives both scenario decoders (the TOML-subset parser
// and the strict JSON path) with arbitrary bytes. The loader contract
// under fuzzing: malformed specs must return an error — parse,
// decode, or validation — and never panic. Accepted specs must
// validate (ParseTOML/ParseJSON run Validate before returning), so a
// nil error implies a runnable scenario.
func FuzzLoadSpec(f *testing.F) {
	// Well-formed seeds: every embedded preset, in both formats.
	for _, name := range PresetNames() {
		data, err := presetFS.ReadFile("presets/" + name + ".toml")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name": "j", "days": 30, "calibration": {"paste": {"tor_prob": 0.5}}}`))
	f.Add([]byte(`{"name": "p", "plan": [{"id": 1, "count": 5, "channel": "paste"}]}`))
	// Malformed seeds steering the fuzzer at the interesting edges.
	f.Add([]byte("name = \"x\"\n[[plan]]\nid = 1\ncount = 0\nchannel = \"paste\"\n"))
	f.Add([]byte("name = \"x\"\n[calibration.paste]\ntor_prob = 7\n"))
	f.Add([]byte("name = \"x\"\nscan_every = \"-1h\"\n"))
	f.Add([]byte(`name = "x`))
	f.Add([]byte("[[sites]]\n"))
	f.Add([]byte(`{"name": "x", "unknown_field": 1}`))
	f.Add([]byte("name = \"x\"\nvisible_scripts = true\n")) // a deleted key
	f.Add([]byte("a = [1, [2]]\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if spec, err := ParseTOML(data); err == nil {
			if verr := spec.Validate(); verr != nil {
				t.Fatalf("ParseTOML returned an invalid spec: %v", verr)
			}
		}
		if spec, err := ParseJSON(data); err == nil {
			if verr := spec.Validate(); verr != nil {
				t.Fatalf("ParseJSON returned an invalid spec: %v", verr)
			}
		}
	})
}
