package search

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"minkowski/internal/chaos"
)

// FuzzScriptRoundTrip feeds arbitrary bytes through the script
// decoder. Malformed input must error cleanly (never panic); any
// input that decodes and validates must re-encode to a canonical form
// that is a fixed point — decode(encode(s)) == s byte-for-byte — so
// the repro corpus on disk never drifts under rewrite.
func FuzzScriptRoundTrip(f *testing.F) {
	// Seed with the committed repro corpus and a few generated scripts.
	repros, _ := filepath.Glob(filepath.Join("testdata", "repros", "*.json"))
	for _, p := range repros {
		if b, err := os.ReadFile(p); err == nil {
			f.Add(b)
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		s := GenerateKinds(rand.New(rand.NewSource(seed)), seed, 1, 2, chaos.Kinds())
		if b, err := json.MarshalIndent(s, "", "  "); err == nil {
			f.Add(append(b, '\n'))
		}
	}
	f.Add([]byte(`{"seed":1,"scale":1,"hours":1,"faults":[{"kind":"no-such-kind","at":10}]}`))
	f.Add([]byte(`{"scale":9}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Script
		if err := json.Unmarshal(data, &s); err != nil {
			return // malformed JSON: rejected, fine
		}
		if err := s.Validate(); err != nil {
			return // well-formed JSON, invalid script: rejected, fine
		}
		enc1, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			t.Fatalf("valid script failed to encode: %v", err)
		}
		var s2 Script
		if err := json.Unmarshal(enc1, &s2); err != nil {
			t.Fatalf("canonical form failed to decode: %v", err)
		}
		if err := s2.Validate(); err != nil {
			t.Fatalf("canonical form failed validation: %v", err)
		}
		enc2, err := json.MarshalIndent(s2, "", "  ")
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("canonical form is not a fixed point:\n%s\nvs\n%s", enc1, enc2)
		}
	})
}

// TestLoadScriptMalformed checks the loader rejects each class of
// broken repro file with an error naming the path.
func TestLoadScriptMalformed(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"bad-json":      `{"seed": 1,`,
		"bad-kind":      `{"seed":1,"scale":1,"hours":1,"faults":[{"kind":"meteor-strike","at":10}]}`,
		"negative-time": `{"seed":1,"scale":1,"hours":1,"faults":[{"kind":"agent-reboot","at":-5}]}`,
		"zero-scale":    `{"seed":1,"scale":0,"hours":1,"faults":[]}`,
		"zero-hours":    `{"seed":1,"scale":1,"hours":0,"faults":[]}`,
	}
	for name, body := range cases {
		p := filepath.Join(dir, name+".json")
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadScript(p); err == nil {
			t.Errorf("%s: LoadScript accepted malformed script", name)
		}
	}

	// And a good one survives a JSON round trip.
	good := Script{Name: "rt", Seed: 9, Scale: 2, Hours: 1.5,
		Faults: []ScriptFault{{Kind: "controller-crash", At: 1200, Duration: 600}}}
	b, err := json.MarshalIndent(good, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "good.json")
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadScript(p)
	if err != nil {
		t.Fatalf("LoadScript(good) = %v", err)
	}
	if got.Name != good.Name || got.Seed != good.Seed || len(got.Faults) != 1 {
		t.Errorf("round trip mangled the script: %+v", got)
	}
}
