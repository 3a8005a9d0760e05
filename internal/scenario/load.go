package scenario

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"unicode/utf8"
)

//go:embed presets/*.json
var presetFS embed.FS

// ParseJSON decodes and validates a scenario spec from JSON, the one
// spec format. Unknown fields, duplicate keys and bytes that are not
// UTF-8 are rejected, so a typo, a key written twice or a mangled
// string fails loudly instead of silently reverting an axis to the
// paper default or letting the last value win.
func ParseJSON(data []byte) (Spec, error) {
	if !utf8.Valid(data) {
		return Spec{}, fmt.Errorf("scenario: JSON spec is not valid UTF-8")
	}
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: bad JSON spec: %w", err)
	}
	// A second document in the stream is a malformed file, not data.
	if dec.More() {
		return Spec{}, fmt.Errorf("scenario: trailing data after JSON spec")
	}
	// The typed decode lets the last of two equal keys win, so a token
	// walk looks for them. It runs second: a document the typed decode
	// accepted is Spec-shaped, at most three levels deep, which bounds
	// the walk's recursion.
	if err := checkKeys(json.NewDecoder(bytes.NewReader(data))); err != nil {
		return Spec{}, fmt.Errorf("scenario: bad JSON spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// checkKeys reads one JSON value token by token and refuses any
// object, at any depth, that names a key twice. encoding/json matches
// field names case-insensitively, so keys are compared folded the way
// it folds them.
func checkKeys(dec *json.Decoder) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	switch tok {
	case json.Delim('{'):
		seen := map[string]bool{}
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				return err
			}
			// Token returns only a string in key position.
			fold := strings.ToUpper(strings.ToLower(key.(string)))
			if seen[fold] {
				return fmt.Errorf("key %q named twice in one object", key)
			}
			seen[fold] = true
			if err := checkKeys(dec); err != nil {
				return err
			}
		}
		_, err = dec.Token() // the closing '}'
		return err
	case json.Delim('['):
		for dec.More() {
			if err := checkKeys(dec); err != nil {
				return err
			}
		}
		_, err = dec.Token() // the closing ']'
		return err
	}
	return nil
}

// LoadFile reads a spec from a .json file.
func LoadFile(path string) (Spec, error) {
	if !strings.EqualFold(filepath.Ext(path), ".json") {
		return Spec{}, fmt.Errorf("scenario: %s: unsupported extension (want a .json spec)", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	return ParseJSON(data)
}

// PresetNames lists the embedded preset scenarios, sorted.
func PresetNames() []string {
	entries, err := presetFS.ReadDir("presets")
	if err != nil {
		return nil
	}
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		out = append(out, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(out)
	return out
}

// Preset loads an embedded preset by name.
func Preset(name string) (Spec, error) {
	data, err := presetFS.ReadFile("presets/" + name + ".json")
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: unknown preset %q (have: %s)", name, strings.Join(PresetNames(), ", "))
	}
	s, err := ParseJSON(data)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: preset %q: %w", name, err)
	}
	return s, nil
}

// Resolve turns a CLI argument into a spec: a preset name if one
// matches, otherwise a JSON file path.
func Resolve(arg string) (Spec, error) {
	if !strings.ContainsAny(arg, "./\\") {
		return Preset(arg)
	}
	return LoadFile(arg)
}
