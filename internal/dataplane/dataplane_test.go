package dataplane

import (
	"fmt"
	"testing"
)

// meshUp is a LinkChecker over a fixed set of up links.
type meshUp map[string]bool

func key(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "|" + b
}

func (m meshUp) LinkUp(a, b string) bool { return m[key(a, b)] }

func prog(s *State, r *Route) {
	s.DeclareRoute(r)
	for i := 0; i < len(r.Path)-1; i++ {
		s.InstallEntry(r.Path[i], r.ID, r.Path[i+1], r.Generation)
	}
}

func TestRouteProgrammingLifecycle(t *testing.T) {
	s := NewState()
	r := &Route{ID: "r1", Path: []string{"hbal-003", "hbal-002", "hbal-001", "gs-0"}}
	s.DeclareRoute(r)
	if s.FullyProgrammed("r1") {
		t.Error("unprogrammed route must not be fully programmed")
	}
	s.InstallEntry("hbal-003", "r1", "hbal-002", 0)
	s.InstallEntry("hbal-002", "r1", "hbal-001", 0)
	if s.FullyProgrammed("r1") {
		t.Error("partially programmed route must not be fully programmed")
	}
	s.InstallEntry("hbal-001", "r1", "gs-0", 0)
	if !s.FullyProgrammed("r1") {
		t.Error("all entries installed → fully programmed")
	}
}

func TestOperableRequiresLinksAndEntries(t *testing.T) {
	s := NewState()
	r := &Route{ID: "r1", Path: []string{"b2", "b1", "gs"}}
	prog(s, r)
	links := meshUp{key("b2", "b1"): true, key("b1", "gs"): true}
	if !s.Operable("r1", links) {
		t.Fatal("route with all links and entries must be operable")
	}
	// Break a link.
	delete(links, key("b1", "gs"))
	if s.Operable("r1", links) {
		t.Error("route with a down link must not be operable")
	}
	// Restore link but flush a node's tables (power cycle).
	links[key("b1", "gs")] = true
	s.FlushNode("b1")
	if s.Operable("r1", links) {
		t.Error("flushed node must break the route")
	}
}

func TestDropRoute(t *testing.T) {
	s := NewState()
	r := &Route{ID: "r1", Path: []string{"b1", "gs"}}
	prog(s, r)
	s.DropRoute("r1")
	if _, ok := s.Route("r1"); ok {
		t.Error("dropped route still declared")
	}
	if s.HasEntry("b1", "r1", 0) {
		t.Error("dropped route left entries behind")
	}
	// Dropping twice is a no-op.
	s.DropRoute("r1")
}

func TestDisjointPaths(t *testing.T) {
	cases := []struct {
		name string
		a, b []string
		want bool
	}{
		{"fully-disjoint", []string{"b1", "b2", "gs1"}, []string{"b1", "b3", "gs2"}, true},
		{"shared-interior-node", []string{"b1", "b2", "gs1"}, []string{"b4", "b2", "gs2"}, false},
		{"shared-link", []string{"b1", "b2", "gs1"}, []string{"b1", "b2", "gs1"}, false},
		{"shared-endpoints-only", []string{"b1", "b2", "gs1"}, []string{"b1", "b3", "gs1"}, true},
		{"trivial", []string{"b1"}, []string{"b1", "b2"}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := DisjointPaths(c.a, c.b); got != c.want {
				t.Errorf("DisjointPaths(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
			}
		})
	}
}

// TestRoutesSorted declares three routes in descending order: a map
// walk over so few entries never yields them ascending, so an unsorted
// Routes fails here on every run.
func TestRoutesSorted(t *testing.T) {
	s := NewState()
	for _, id := range []string{"zz", "mm", "aa"} {
		prog(s, &Route{ID: id, Path: []string{"a", "b"}})
	}
	var ids []string
	for _, r := range s.Routes() {
		ids = append(ids, r.ID)
	}
	if fmt.Sprint(ids) != "[aa mm zz]" {
		t.Errorf("routes not sorted: %v", ids)
	}
}

func TestOperableUnknownRoute(t *testing.T) {
	s := NewState()
	if s.Operable("ghost", meshUp{}) {
		t.Error("unknown route must not be operable")
	}
}

// DisjointPaths reports whether two node paths share any
// intermediate node or link (the redundancy-group property). Shared
// endpoints are allowed.
func DisjointPaths(a, b []string) bool {
	if len(a) < 2 || len(b) < 2 {
		return true
	}
	interior := map[string]bool{}
	for i := 1; i < len(a)-1; i++ {
		interior[a[i]] = true
	}
	for i := 1; i < len(b)-1; i++ {
		if interior[b[i]] {
			return false
		}
	}
	linkKey := func(x, y string) string {
		if y < x {
			x, y = y, x
		}
		return x + "|" + y
	}
	linksA := map[string]bool{}
	for i := 1; i < len(a); i++ {
		linksA[linkKey(a[i-1], a[i])] = true
	}
	for i := 1; i < len(b); i++ {
		if linksA[linkKey(b[i-1], b[i])] {
			return false
		}
	}
	return true
}
