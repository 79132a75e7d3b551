package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"minkowski/internal/explain"
	"minkowski/internal/radio"
)

// TestPrintStateIsByteStable: the scrubbed state arrives as ordered
// slices, and this repository's contract is byte-identical output —
// every rendering of one state is the same bytes, links in link-ID
// order with their intent and routes in request-ID order.
func TestPrintStateIsByteStable(t *testing.T) {
	st := explain.State{
		At: 5400, Value: 350e6,
		Links: []explain.Installed{
			{ID: radio.MakeLinkID("gs-0/xcvr-0", "hbal-001/xcvr-1"), Intent: "established"},
			{ID: radio.MakeLinkID("hbal-001/xcvr-0", "hbal-002/xcvr-0")},
		},
	}
	for i := 1; i <= 2; i++ {
		st.Routes = append(st.Routes, explain.Route{
			ID: fmt.Sprintf("backhaul/hbal-%03d", i), Path: []string{fmt.Sprintf("hbal-%03d", i), "gs-0"},
		})
	}
	const want = `== state at t=5460s (snapshot t=5400s, plan value 350000000) ==
installed links (2):
  gs-0/xcvr-0<->hbal-001/xcvr-1 [established]
  hbal-001/xcvr-0<->hbal-002/xcvr-0 []
routes (2):
  backhaul/hbal-001: [hbal-001 gs-0]
  backhaul/hbal-002: [hbal-002 gs-0]
`
	for i := 0; i < 2; i++ {
		var b bytes.Buffer
		printState(&b, 5460, st)
		if b.String() != want {
			t.Fatalf("rendering %d:\n%s\nwant:\n%s", i+1, b.String(), want)
		}
	}
}

// TestExplainGoldens pins the command's stdout, state, change-log and
// why-not, at several scrub points of one 3-hour run to the bytes
// committed in testdata. Regenerate a file only for a change that
// means to move it:
//
//	go run ./cmd/explain <args> > testdata/NAME.txt
func TestExplainGoldens(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"at1800", []string{"-hours", "3", "-at", "1800"}},
		{"at5400", []string{"-hours", "3", "-at", "5400"}},
		{"end", []string{"-hours", "3"}},
		{"link-state-hbal-001", []string{"-hours", "3", "-kind", "link-state", "-subject", "hbal-001"}},
		{"whynot", []string{"-hours", "3", "-whynot-a", "hbal-001/xcvr-0", "-whynot-b", "hbal-005/xcvr-0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var stdout strings.Builder
			if err := run(tc.args, &stdout); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if stdout.String() != string(want) {
				t.Errorf("explain %s differs from testdata/%s.txt:\n%s\nwant:\n%s", strings.Join(tc.args, " "), tc.name, stdout.String(), want)
			}
		})
	}
}

// TestParseArgs: a -kind no row has is rejected with one stderr line
// naming every valid kind, as the other commands reject bad values; a
// valid kind is accepted silently.
func TestParseArgs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string // substring of the one-line message; "" = accepted
	}{
		{"defaults", nil, ""},
		{"known kind", []string{"-kind", "route-intent", "-subject", "hbal-001"}, ""},
		{"misspelt kind", []string{"-kind", "comand"},
			`-kind "comand" is not one of node-join, node-leave, weather, anomaly, command, link-state, route-intent, solve`},
		{"unknown flag", []string{"-scale", "2"}, "flag provided but not defined: -scale"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var msg strings.Builder
			o, err := parseArgs(tc.args, &msg)
			if tc.wantErr == "" {
				if err != nil || o == nil || msg.Len() != 0 {
					t.Fatalf("parseArgs(%q) = %v, %v, printed %q; want accepted silently", tc.args, o, err, msg.String())
				}
				return
			}
			if err == nil {
				t.Fatalf("parseArgs(%q) accepted; want error containing %q", tc.args, tc.wantErr)
			}
			first, _, _ := strings.Cut(msg.String(), "\n")
			if !strings.Contains(first, tc.wantErr) {
				t.Errorf("parseArgs(%q) first line %q; want it to contain %q", tc.args, first, tc.wantErr)
			}
		})
	}
}
