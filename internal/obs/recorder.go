package obs

import "strconv"

// Record is one flight-recorder entry. Kind is "span" or "event";
// Detail is a pre-formatted string (strconv, never fmt). A
// span record keeps its duration as a number in the ring; Dump formats
// it into Detail.
type Record struct {
	T       float64 `json:"t"`
	Replica string  `json:"replica,omitempty"`
	Kind    string  `json:"kind"`
	Name    string  `json:"name"`
	Detail  string  `json:"detail,omitempty"`

	dur float64
}

// FlightDump is the "black box" attached to chaos violations: the
// recorder's window of recent records at the moment of the dump.
type FlightDump struct {
	At      float64  `json:"at"`
	Window  float64  `json:"window"`
	Replica string   `json:"replica,omitempty"`
	Evicted uint64   `json:"evicted,omitempty"`
	Records []Record `json:"records"`
}

// Recorder is a bounded ring of recent records, stamped with the sim
// clock and the acting replica. Disabled or nil recorders drop
// everything.
type Recorder struct {
	now     func() float64
	cap     int
	window  float64
	enabled bool
	replica string
	ring    []Record
	head    int // next write slot once the ring is full
	full    bool
	evicted uint64
}

// SetReplica stamps subsequent records with the acting replica's id
// (failover promotions re-stamp).
func (r *Recorder) SetReplica(id string) {
	if r == nil {
		return
	}
	r.replica = id
}

func (r *Recorder) push(rec Record) {
	if r == nil || !r.enabled {
		return
	}
	rec.T = r.now()
	rec.Replica = r.replica
	if r.ring == nil {
		r.ring = make([]Record, 0, r.cap)
	}
	if !r.full {
		r.ring = append(r.ring, rec)
		if len(r.ring) == r.cap {
			r.full = true
		}
		return
	}
	r.ring[r.head] = rec
	r.head++
	r.evicted++
	if r.head == r.cap {
		r.head = 0
	}
}

// Event appends an event record.
func (r *Recorder) Event(name, detail string) {
	r.push(Record{Kind: "event", Name: name, Detail: detail})
}

// spanDone mirrors a completed span into the ring.
func (r *Recorder) spanDone(s *Span) {
	if r == nil || !r.enabled {
		return
	}
	r.push(Record{Kind: "span", Name: s.Name, dur: s.End - s.Start})
}

// Dump exports the records inside the lookback window, oldest first.
// Returns nil when the recorder is off (the chaos report omits the
// field).
func (r *Recorder) Dump() *FlightDump {
	if r == nil || !r.enabled {
		return nil
	}
	at := r.now()
	d := &FlightDump{At: at, Window: r.window, Replica: r.replica, Evicted: r.evicted}
	cutoff := at - r.window
	emit := func(rec Record) {
		if rec.T >= cutoff {
			if rec.Kind == "span" {
				rec.Detail, rec.dur = "dur="+strconv.FormatFloat(rec.dur, 'g', -1, 64), 0
			}
			d.Records = append(d.Records, rec)
		}
	}
	if r.full {
		for _, rec := range r.ring[r.head:] {
			emit(rec)
		}
		for _, rec := range r.ring[:r.head] {
			emit(rec)
		}
	} else {
		for _, rec := range r.ring {
			emit(rec)
		}
	}
	if d.Records == nil {
		d.Records = []Record{}
	}
	return d
}
