// Package intent holds the TS-SDN's intent layer (§3.1): the desired
// state of every link and route, tracked through explicit state
// machines, plus the reconciler that compares a solver plan against
// current intents and emits the actions needed to align them ("an
// actuation component compiled intents into desired per-node
// configuration, continuously monitored node state, and dispatched
// commands using the CDPI to align node behavior with the desired
// intents").
//
// The artifact appendix's link_intents table is exactly this
// package's history: "state transitions of each attempted link."
package intent

import (
	"fmt"
	"sort"

	"minkowski/internal/radio"
	"minkowski/internal/rf"
	"minkowski/internal/solver"
)

// LinkState is the lifecycle of a link intent.
type LinkState int

const (
	// LinkPending: created, not yet commanded.
	LinkPending LinkState = iota
	// LinkCommanded: establish commands dispatched (awaiting TTE).
	LinkCommanded
	// LinkInstalling: the radios are slewing/searching.
	LinkInstalling
	// LinkEstablished: up and carrying traffic.
	LinkEstablished
	// LinkWithdrawn: terminal, controller-initiated teardown.
	LinkWithdrawn
	// LinkFailed: terminal, anything unplanned.
	LinkFailed
)

// String implements fmt.Stringer.
func (s LinkState) String() string {
	switch s {
	case LinkPending:
		return "pending"
	case LinkCommanded:
		return "commanded"
	case LinkInstalling:
		return "installing"
	case LinkEstablished:
		return "established"
	case LinkWithdrawn:
		return "withdrawn"
	default:
		return "failed"
	}
}

// Terminal reports whether the state is final.
func (s LinkState) Terminal() bool { return s == LinkWithdrawn || s == LinkFailed }

// LinkIntent is the TS-SDN's desire for one link.
type LinkIntent struct {
	ID           uint64
	Link         radio.LinkID
	XA, XB       string // transceiver IDs
	NodeA, NodeB string
	Channel      rf.Channel
	// Redundant marks secondary-objective links.
	Redundant bool
	State     LinkState
	// Timestamps (sim seconds; zero = not reached).
	CreatedAt     float64
	CommandedAt   float64
	InstallingAt  float64
	EstablishedAt float64
	EndedAt       float64
	// Attempts counts establishment tries.
	Attempts int
	// FailReason records the radio's reason on failure.
	FailReason string
}

// String implements fmt.Stringer.
func (li *LinkIntent) String() string {
	return fmt.Sprintf("link-intent %d %s [%s]", li.ID, li.Link, li.State)
}

// Clone returns an independent deep copy. Journal entries and
// replication-stream payloads must not share mutable state with the
// live store, or a later state transition would silently rewrite
// history.
func (li *LinkIntent) Clone() *LinkIntent {
	cp := *li
	return &cp
}

// RouteState is the lifecycle of a route intent.
type RouteState int

const (
	// RoutePending: declared, not yet fully programmed.
	RoutePending RouteState = iota
	// RouteProgrammed: all per-node entries installed.
	RouteProgrammed
	// RouteRemoved: terminal.
	RouteRemoved
)

// String implements fmt.Stringer.
func (s RouteState) String() string {
	switch s {
	case RoutePending:
		return "pending"
	case RouteProgrammed:
		return "programmed"
	default:
		return "removed"
	}
}

// RouteIntent is the TS-SDN's desire for one source-destination
// route.
type RouteIntent struct {
	// ID is the request ID it serves.
	ID   string
	Path []string
	// Generation increments when the path is reprogrammed.
	Generation                         int
	State                              RouteState
	CreatedAt, ProgrammedAt, RemovedAt float64
}

// Clone returns an independent deep copy (including the path slice).
func (ri *RouteIntent) Clone() *RouteIntent {
	cp := *ri
	cp.Path = append([]string(nil), ri.Path...)
	return &cp
}

// Store tracks all intents and their history.
type Store struct {
	nextID  uint64
	links   map[radio.LinkID]*LinkIntent
	routes  map[string]*RouteIntent
	history []*LinkIntent
	// RouteHistory holds removed route intents.
	RouteHistory []*RouteIntent
}

// NewStore creates an empty intent store.
func NewStore() *Store {
	return &Store{
		links:  map[radio.LinkID]*LinkIntent{},
		routes: map[string]*RouteIntent{},
	}
}

// ActiveLink returns the live intent for a link ID.
func (st *Store) ActiveLink(id radio.LinkID) (*LinkIntent, bool) {
	li, ok := st.links[id]
	return li, ok
}

// ActiveLinks returns live link intents sorted by link ID.
func (st *Store) ActiveLinks() []*LinkIntent {
	out := make([]*LinkIntent, 0, len(st.links))
	for _, li := range st.links {
		out = append(out, li)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Link.A != out[j].Link.A {
			return out[i].Link.A < out[j].Link.A
		}
		return out[i].Link.B < out[j].Link.B
	})
	return out
}

// ActiveRoutes returns live route intents sorted by ID.
func (st *Store) ActiveRoutes() []*RouteIntent {
	out := make([]*RouteIntent, 0, len(st.routes))
	for _, ri := range st.routes {
		out = append(out, ri)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// History returns completed link intents in completion order.
func (st *Store) History() []*LinkIntent { return st.history }

// --- State transitions (driven by the actuation layer) --------------

// MarkCommanded moves a pending intent to commanded.
func (st *Store) MarkCommanded(id radio.LinkID, now float64) {
	if li, ok := st.links[id]; ok && li.State == LinkPending {
		li.State = LinkCommanded
		li.CommandedAt = now
		li.Attempts++
	}
}

// MarkInstalling moves a commanded intent to installing (both
// endpoints armed; radios searching).
func (st *Store) MarkInstalling(id radio.LinkID, now float64) {
	if li, ok := st.links[id]; ok && li.State == LinkCommanded {
		li.State = LinkInstalling
		li.InstallingAt = now
	}
}

// MarkRetry returns an installing intent to commanded for another
// attempt.
func (st *Store) MarkRetry(id radio.LinkID, now float64) {
	if li, ok := st.links[id]; ok && !li.State.Terminal() {
		li.State = LinkCommanded
		li.CommandedAt = now
		li.Attempts++
	}
}

// MarkEstablished records link-up.
func (st *Store) MarkEstablished(id radio.LinkID, now float64) {
	if li, ok := st.links[id]; ok && !li.State.Terminal() {
		li.State = LinkEstablished
		if li.EstablishedAt == 0 {
			li.EstablishedAt = now
		}
	}
}

// MarkWithdrawn terminates an intent as planned.
func (st *Store) MarkWithdrawn(id radio.LinkID, now float64) {
	st.finish(id, LinkWithdrawn, "withdrawn", now)
}

// MarkFailed terminates an intent as unplanned.
func (st *Store) MarkFailed(id radio.LinkID, reason string, now float64) {
	st.finish(id, LinkFailed, reason, now)
}

func (st *Store) finish(id radio.LinkID, s LinkState, reason string, now float64) {
	li, ok := st.links[id]
	if !ok || li.State.Terminal() {
		return
	}
	li.State = s
	li.FailReason = reason
	li.EndedAt = now
	delete(st.links, id)
	st.history = append(st.history, li)
}

// MarkRouteProgrammed records full programming.
func (st *Store) MarkRouteProgrammed(id string, now float64) {
	if ri, ok := st.routes[id]; ok && ri.State == RoutePending {
		ri.State = RouteProgrammed
		ri.ProgrammedAt = now
	}
}

// --- Restart adoption (crash-restart reconciliation, §6) -------------

// Adopt re-inserts a journaled link intent after a controller
// restart, preserving its state, timestamps, and attempt count so the
// actuation layer does not re-command work that already happened. The
// ID counter advances past the adopted ID to keep new IDs unique.
func (st *Store) Adopt(li *LinkIntent) {
	if li == nil || li.State.Terminal() {
		return
	}
	st.links[li.Link] = li
	if li.ID > st.nextID {
		st.nextID = li.ID
	}
}

// AdoptRoute re-inserts a journaled route intent after a restart,
// preserving its generation so reprograms stay monotonic against the
// per-node entries that survived on the data plane.
func (st *Store) AdoptRoute(ri *RouteIntent) {
	if ri == nil || ri.State == RouteRemoved {
		return
	}
	st.routes[ri.ID] = ri
}

// --- Reconciliation ---------------------------------------------------

// Actions is the output of one reconcile pass: what the actuation
// layer must do to align reality with the plan.
type Actions struct {
	// EstablishLinks are new link intents to command (state Pending).
	EstablishLinks []*LinkIntent
	// WithdrawLinks are live intents the plan no longer wants — the
	// *predictive teardown* path of Fig. 8.
	WithdrawLinks []*LinkIntent
	// ProgramRoutes are new/changed route intents to push.
	ProgramRoutes []*RouteIntent
	// RemoveRoutes are route intents to withdraw.
	RemoveRoutes []*RouteIntent
}

// Empty reports whether nothing needs doing.
func (a Actions) Empty() bool {
	return len(a.EstablishLinks) == 0 && len(a.WithdrawLinks) == 0 &&
		len(a.ProgramRoutes) == 0 && len(a.RemoveRoutes) == 0
}

// Reconcile diffs a solver plan against the store, creating new
// intents and flagging obsolete ones. It mutates the store (new
// intents appear as Pending; obsolete route intents are removed) but
// leaves link-intent termination to the actuation layer (which must
// first send the withdraw commands).
func (st *Store) Reconcile(plan *solver.Plan, now float64) Actions {
	var acts Actions
	planned := map[radio.LinkID]solver.Chosen{}
	for _, c := range plan.Links {
		planned[c.Report.ID] = c
	}
	// Links to establish: planned but no live intent.
	// Deterministic order: iterate plan.Links (already sorted).
	for _, c := range plan.Links {
		if _, live := st.links[c.Report.ID]; live {
			continue
		}
		st.nextID++
		li := &LinkIntent{
			ID:   st.nextID,
			Link: c.Report.ID,
			XA:   c.Report.XA.ID, XB: c.Report.XB.ID,
			NodeA: c.Report.XA.Node.ID, NodeB: c.Report.XB.Node.ID,
			Channel:   c.Channel,
			Redundant: c.Redundant,
			State:     LinkPending,
			CreatedAt: now,
		}
		st.links[li.Link] = li
		acts.EstablishLinks = append(acts.EstablishLinks, li)
	}
	// Links to withdraw: live intent but not planned.
	for _, li := range st.ActiveLinks() {
		if _, ok := planned[li.Link]; !ok {
			acts.WithdrawLinks = append(acts.WithdrawLinks, li)
		}
	}
	// Routes.
	for _, id := range sortedRouteIDs(plan.Routes) {
		path := plan.Routes[id]
		cur, ok := st.routes[id]
		if ok && samePath(cur.Path, path) {
			continue
		}
		gen := 1
		if ok {
			gen = cur.Generation + 1
			cur.State = RouteRemoved
			cur.RemovedAt = now
			st.RouteHistory = append(st.RouteHistory, cur)
			acts.RemoveRoutes = append(acts.RemoveRoutes, cur)
		}
		ri := &RouteIntent{
			ID: id, Path: append([]string(nil), path...),
			Generation: gen, State: RoutePending, CreatedAt: now,
		}
		st.routes[id] = ri
		acts.ProgramRoutes = append(acts.ProgramRoutes, ri)
	}
	// Routes to remove: live but not in the plan.
	for _, ri := range st.ActiveRoutes() {
		if _, ok := plan.Routes[ri.ID]; !ok {
			ri.State = RouteRemoved
			ri.RemovedAt = now
			delete(st.routes, ri.ID)
			st.RouteHistory = append(st.RouteHistory, ri)
			acts.RemoveRoutes = append(acts.RemoveRoutes, ri)
		}
	}
	return acts
}

func sortedRouteIDs(m map[string][]string) []string {
	out := make([]string, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func samePath(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
