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
	"slices"
	"strings"

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

// RouteIntent is the TS-SDN's desire for one source-destination
// route.
type RouteIntent struct {
	// ID is the request ID it serves.
	ID   string
	Path []string
	// Generation increments when the path is reprogrammed.
	Generation int
	State      RouteState
	CreatedAt  float64
}

// Store tracks all intents and the history of link intents.
type Store struct {
	nextID  uint64
	links   map[radio.LinkID]*LinkIntent
	routes  map[string]*RouteIntent
	history []*LinkIntent

	// Reconcile's scratch, reused from pass to pass: the plan's link
	// set and route IDs, and the live intents it walks.
	planned    map[radio.LinkID]bool
	routeIDs   []string
	liveLinks  []*LinkIntent
	liveRoutes []*RouteIntent
}

// NewStore creates an empty intent store.
func NewStore() *Store {
	return &Store{
		links:   map[radio.LinkID]*LinkIntent{},
		routes:  map[string]*RouteIntent{},
		planned: map[radio.LinkID]bool{},
	}
}

// ActiveLink returns the live intent for a link ID.
func (st *Store) ActiveLink(id radio.LinkID) (*LinkIntent, bool) {
	li, ok := st.links[id]
	return li, ok
}

// ActiveLinks returns live link intents sorted by link ID.
func (st *Store) ActiveLinks() []*LinkIntent {
	return st.appendActiveLinks(make([]*LinkIntent, 0, len(st.links)))
}

func (st *Store) appendActiveLinks(dst []*LinkIntent) []*LinkIntent {
	start := len(dst)
	for _, li := range st.links {
		dst = append(dst, li)
	}
	slices.SortFunc(dst[start:], func(a, b *LinkIntent) int { return a.Link.Compare(b.Link) })
	return dst
}

// ActiveRoutes returns live route intents sorted by ID.
func (st *Store) ActiveRoutes() []*RouteIntent {
	return st.AppendActiveRoutes(make([]*RouteIntent, 0, len(st.routes)))
}

// AppendActiveRoutes appends the live route intents to dst, sorted by
// ID, and returns the extended slice: a caller that passes the previous
// call's slice back, emptied, allocates nothing once it has room.
func (st *Store) AppendActiveRoutes(dst []*RouteIntent) []*RouteIntent {
	start := len(dst)
	for _, ri := range st.routes {
		dst = append(dst, ri)
	}
	slices.SortFunc(dst[start:], func(a, b *RouteIntent) int { return strings.Compare(a.ID, b.ID) })
	return dst
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
	clear(st.planned)
	for _, c := range plan.Links {
		st.planned[c.Report.ID] = true
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
	st.liveLinks = st.appendActiveLinks(st.liveLinks[:0])
	for _, li := range st.liveLinks {
		if !st.planned[li.Link] {
			acts.WithdrawLinks = append(acts.WithdrawLinks, li)
		}
	}
	// Routes.
	st.routeIDs = st.routeIDs[:0]
	for id := range plan.Routes {
		st.routeIDs = append(st.routeIDs, id)
	}
	slices.Sort(st.routeIDs)
	for _, id := range st.routeIDs {
		path := plan.Routes[id]
		cur, ok := st.routes[id]
		if ok && samePath(cur.Path, path) {
			continue
		}
		gen := 1
		if ok {
			gen = cur.Generation + 1
			cur.State = RouteRemoved
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
	st.liveRoutes = st.AppendActiveRoutes(st.liveRoutes[:0])
	for _, ri := range st.liveRoutes {
		if _, ok := plan.Routes[ri.ID]; !ok {
			ri.State = RouteRemoved
			delete(st.routes, ri.ID)
			acts.RemoveRoutes = append(acts.RemoveRoutes, ri)
		}
	}
	return acts
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
