package livefleet

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzReadCredentials feeds arbitrary leak files to the one
// "address password" parser that webmaild -creds output, loadgen and
// c3d -creds all go through. No input may panic it, and whatever it
// accepts must come back unchanged through WriteCredentials and
// ReadCredentials.
func FuzzReadCredentials(f *testing.F) {
	f.Add("# note\nalice@x.example pw1\n")
	f.Add("alice@x.example pw1\r\nbob@x.example pw2\r\n")
	f.Add("only-one-field\n")
	f.Add("alice@x.example pw1 extra\n")
	f.Add("\n\n   \nalice@x.example pw1\n\n")
	// One line past bufio.Scanner's 64 KiB token limit.
	f.Add("alice@x.example " + strings.Repeat("p", 64<<10) + "\n")

	f.Fuzz(func(t *testing.T, in string) {
		creds, err := ReadCredentials(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf strings.Builder
		if err := WriteCredentials(&buf, creds); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCredentials(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("written credentials rejected: %v\n%q", err, buf.String())
		}
		if !reflect.DeepEqual(back, creds) {
			t.Fatalf("round trip changed the credentials:\n got %q\nwant %q", back, creds)
		}
	})
}
