package vet_test

import (
	"strings"
	"testing"
	"unicode"

	"minkowski/internal/analysis/vet"
)

func TestParseDirective(t *testing.T) {
	cases := []struct {
		comment string
		isDir   bool
		wantErr string // substring; "" = well-formed
		name    string
		just    string
	}{
		{"// ordinary comment", false, "", "", ""},
		{"// minkowski:hotpath", false, "", "", ""}, // space after //: prose
		{"//minkowski:hotpath", true, "", "hotpath", ""},
		{"//minkowski:unordered-ok keys are summed", true, "", "unordered-ok", "keys are summed"},
		{"//minkowski:hotpath-ok  padded  ", true, "", "hotpath-ok", "padded"},
		{"//minkowski:", true, "empty name", "", ""},
		{"//minkowski:Hotpath", true, "lowercase letter", "Hotpath", ""},
		{"//minkowski:units_ok", true, "invalid character", "units_ok", ""},
		{"//minkowski:unorderd-ok oops", true, "unknown directive", "unorderd-ok", "oops"},
		{"//minkowski:9lives", true, "lowercase letter", "9lives", ""},
	}
	for _, c := range cases {
		d, ok, err := vet.ParseDirective(c.comment)
		if ok != c.isDir {
			t.Errorf("ParseDirective(%q): ok = %v, want %v", c.comment, ok, c.isDir)
			continue
		}
		if !ok {
			continue
		}
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("ParseDirective(%q): unexpected error %v", c.comment, err)
			}
			if d.Name != c.name || d.Justification != c.just {
				t.Errorf("ParseDirective(%q) = {%q %q}, want {%q %q}", c.comment, d.Name, d.Justification, c.name, c.just)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("ParseDirective(%q): error = %v, want substring %q", c.comment, err, c.wantErr)
		}
	}
}

// FuzzParseDirective is the CI fuzz-smoke target for the directive
// parser: arbitrary comment text must never panic, and anything the
// parser accepts as well-formed must actually satisfy the documented
// grammar (known name, lowercase-letter start, [a-z0-9-] charset).
func FuzzParseDirective(f *testing.F) {
	f.Add("//minkowski:hotpath")
	f.Add("//minkowski:unordered-ok keys are summed commutatively")
	f.Add("//minkowski:")
	f.Add("//minkowski:Hotpath")
	f.Add("//minkowski:units_ok mixed")
	f.Add("//minkowski:taint-ok")
	f.Add("// minkowski:hotpath")
	f.Add("//minkowski:a-b-c justification with //minkowski:nested")
	f.Add("//minkowski:\x00\xff")
	f.Fuzz(func(t *testing.T, comment string) {
		d, ok, err := vet.ParseDirective(comment) // must not panic
		if !ok {
			if err != nil {
				t.Fatalf("not a directive but error: %v", err)
			}
			return
		}
		if err != nil {
			return // malformed: diagnosed, never suppressing
		}
		if !vet.KnownDirectives[d.Name] {
			t.Fatalf("accepted unknown directive %q", d.Name)
		}
		if d.Name == "" || !unicode.IsLower(rune(d.Name[0])) {
			t.Fatalf("accepted bad name %q", d.Name)
		}
		for _, r := range d.Name {
			if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
				t.Fatalf("accepted name with invalid rune: %q", d.Name)
			}
		}
	})
}

func TestDirectivesAnalyzer(t *testing.T) {
	vet.RunWant(t, vet.DirectivesAnalyzer, "dirtest")
}
