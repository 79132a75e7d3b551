package explain

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"minkowski/internal/intent"
	"minkowski/internal/radio"
)

// Op says what a change-log row records: a note carries its rendered
// Detail, a typed row only the fields String renders.
type Op uint8

// Row ops: the notes, then the typed rows.
const (
	NodeJoin Op = iota
	NodeLeave
	Weather
	Anomaly
	Establish
	Withdraw
	LinkUp
	LinkDown
	LinkAbandoned
	RouteProgram
	RouteRemove
	Solved
	SolveHeld
	cycleEnd // ends a solve cycle's rows (same-instant rows may follow); Query skips it
)

// kinds names each op's kind, the class a Filter selects rows by.
var kinds = [...]string{NodeJoin: "node-join", NodeLeave: "node-leave", Weather: "weather", Anomaly: "anomaly",
	Establish: "command", Withdraw: "command", LinkUp: "link-state", LinkDown: "link-state", LinkAbandoned: "link-state",
	RouteProgram: "route-intent", RouteRemove: "route-intent", Solved: "solve", SolveHeld: "anomaly", cycleEnd: ""}

// Event is one change-log row; only the fields its Op uses are set.
type Event struct {
	At      float64
	Op      Op
	Link    radio.LinkID // command and link-state rows
	Name    string       // a route row's request ID, a note's subject
	N       int          // attempt, route generation or solve cycle
	TTE     float64      // an establish row's time to enact
	Reason  radio.Reason // why a link went down
	Path    []string     // a route row's, shared with its intent
	Summary *Summary     // a solve row's
	Detail  string       // a note's
}

// Summary is a solve row's account of its cycle.
type Summary struct {
	Candidates, Links, Redundant, Routes, Unsatisfied int
	EvalPairs, ReEvals                                uint64
	Utility                                           float64
}

// Kind names the row's class.
func (e Event) Kind() string { return kinds[e.Op] }

// Kinds lists the kinds a Filter can select, each once, in op order.
func Kinds() []string {
	var out []string
	for _, k := range kinds {
		if k != "" && !slices.Contains(out, k) {
			out = append(out, k)
		}
	}
	return out
}

// Subject renders the entity the row is about.
func (e Event) Subject() string {
	switch {
	case e.Op == Solved || e.Op == SolveHeld:
		return "cycle-" + strconv.Itoa(e.N)
	case e.Link != radio.LinkID{}:
		return e.Link.String()
	}
	return e.Name
}

// String renders the row; typed rows are formatted here, at the edge.
func (e Event) String() string {
	detail := e.Detail
	switch s := e.Summary; e.Op {
	case Establish:
		detail = fmt.Sprintf("link-establish attempt %d tte=%.0f", e.N, e.TTE)
	case Withdraw:
		detail = "link-withdraw"
	case LinkUp:
		detail = "established"
	case LinkDown:
		detail = "down: " + e.Reason.String()
	case LinkAbandoned:
		detail = fmt.Sprintf("abandoned after %d attempts", e.N)
	case RouteProgram:
		detail = fmt.Sprintf("program gen %d path %v", e.N, e.Path)
	case RouteRemove:
		detail = fmt.Sprintf("remove gen %d", e.N)
	case Solved:
		detail = fmt.Sprintf("candidates=%d links=%d redundant=%d routes=%d unsatisfied=%d utility=%.0f evalpairs=%d reevals=%d",
			s.Candidates, s.Links, s.Redundant, s.Routes, s.Unsatisfied, s.Utility, s.EvalPairs, s.ReEvals)
	case SolveHeld:
		detail = "solver unavailable; holding last-known-good plan"
	}
	return fmt.Sprintf("[%10.1f] %-12s %-28s %s", e.At, e.Kind(), e.Subject(), detail)
}

// maxRows bounds the log: past it, the oldest quarter of the rows is
// folded into the base state and dropped.
const maxRows = 200000

// Log is the append-only change-log, and the time scrubber over it.
type Log struct {
	rows []Event
	base fold // the evicted rows' fold
	max  int  // overrides maxRows when positive
}

// Add records a row; full storage doubles (quarter steps recopy rows ~4 times).
func (l *Log) Add(e Event) {
	if len(l.rows) == cap(l.rows) {
		l.rows = slices.Grow(l.rows, len(l.rows)+1)
	}
	l.rows = append(l.rows, e)
	if limit := cmp.Or(l.max, maxRows); len(l.rows) > limit {
		drop := limit / 4
		for i := range l.rows[:drop] {
			l.base.apply(&l.rows[i])
		}
		l.rows = append(l.rows[:0], l.rows[drop:]...)
	}
}

// EndCycle marks the end of the solve cycle at the given time.
func (l *Log) EndCycle(at float64) { l.Add(Event{At: at, Op: cycleEnd}) }

// Filter selects rows in time order.
type Filter struct {
	Kind     string  // "" = any
	Subject  string  // "" = any; substring match
	From, To float64 // To = 0 means +inf
}

// Query returns matching rows.
func (l *Log) Query(f Filter) []Event {
	var out []Event
	for _, e := range l.rows {
		if e.Op != cycleEnd && (f.Kind == "" || e.Kind() == f.Kind) && (f.Subject == "" || strings.Contains(e.Subject(), f.Subject)) &&
			e.At >= f.From && (f.To <= 0 || e.At <= f.To) {
			out = append(out, e)
		}
	}
	return out
}

// State is the network as the controller saw it at the end of a solve
// cycle: its installed links in link-ID order, its active route
// intents by request ID, and the plan's value (observation 4:
// "identify a metric for the value of each given network solution").
type State struct {
	At, Value float64
	Links     []Installed
	Routes    []Route
}

// Installed is an installed link and the state of the controller's
// intent for it ("" when it held none).
type Installed struct {
	ID     radio.LinkID
	Intent string
}

// Route is an active route intent.
type Route struct {
	ID   string
	Path []string
}

// StateAt folds the rows up to the end of the last solve cycle at or
// before t; false when there is none, or it was evicted.
func (l *Log) StateAt(t float64) (State, bool) {
	i := sort.Search(len(l.rows), func(i int) bool { return l.rows[i].At > t })
	for i > 0 && l.rows[i-1].Op != cycleEnd {
		i--
	}
	if i == 0 {
		return State{}, false
	}
	f := fold{l.base.value, maps.Clone(l.base.up), maps.Clone(l.base.intents), maps.Clone(l.base.routes)}
	for j := range l.rows[:i] {
		f.apply(&l.rows[j])
	}
	st := State{At: l.rows[i-1].At, Value: f.value}
	for id := range f.up {
		st.Links = append(st.Links, Installed{id, f.intents[id]})
	}
	slices.SortFunc(st.Links, func(a, b Installed) int { return a.ID.Compare(b.ID) })
	for id, p := range f.routes {
		st.Routes = append(st.Routes, Route{id, p})
	}
	slices.SortFunc(st.Routes, func(a, b Route) int { return strings.Compare(a.ID, b.ID) })
	return st, true
}

// fold is the scrubber's running state.
type fold struct {
	value   float64
	up      map[radio.LinkID]bool
	intents map[radio.LinkID]string // intent states by link
	routes  map[string][]string
}

// apply advances the fold over one row as the actuation layer moved
// the acting intent store when it logged the row.
func (f *fold) apply(e *Event) {
	if f.up == nil {
		f.up, f.intents, f.routes = map[radio.LinkID]bool{}, map[radio.LinkID]string{}, map[string][]string{}
	}
	switch e.Op {
	case Establish:
		f.intents[e.Link] = intent.LinkCommanded.String()
	case LinkUp:
		if _, ok := f.intents[e.Link]; ok {
			f.intents[e.Link] = intent.LinkEstablished.String()
		}
		f.up[e.Link] = true
	case LinkDown:
		// An installed link's end, or any withdrawal, ends its intent; a
		// failed attempt's lives on into a retry or its abandonment.
		if f.up[e.Link] || e.Reason == radio.ReasonWithdrawn {
			delete(f.intents, e.Link)
		}
		delete(f.up, e.Link)
	case LinkAbandoned:
		delete(f.intents, e.Link)
	case RouteProgram:
		f.routes[e.Name] = e.Path
	case RouteRemove:
		delete(f.routes, e.Name)
	case Solved:
		f.value = e.Summary.Utility
	}
}
