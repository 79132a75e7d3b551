package obs

import "testing"

func TestRecorderRingAndWindow(t *testing.T) {
	clock := 0.0
	o := New(Config{Enabled: true, FlightCap: 4, FlightWindowS: 50}, func() float64 { return clock })
	rec := o.Rec
	rec.SetReplica("A")

	for i := 0; i < 6; i++ {
		clock = float64(i * 10)
		rec.Event("tick", "")
	}
	// Ring cap 4: records at t=0,10 evicted; survivors t=20..50.
	clock = 60
	d := rec.Dump()
	if d == nil {
		t.Fatal("enabled recorder must dump")
	}
	if d.Evicted != 2 {
		t.Fatalf("evicted = %d, want 2", d.Evicted)
	}
	// Window 50 back from t=60 keeps t >= 10; ring keeps t >= 20.
	if len(d.Records) != 4 || d.Records[0].T != 20 || d.Records[3].T != 50 {
		t.Fatalf("records = %+v", d.Records)
	}
	for _, r := range d.Records {
		if r.Replica != "A" {
			t.Fatalf("record missing replica stamp: %+v", r)
		}
	}

	// Window excludes old records even if still in the ring.
	clock = 120
	d = rec.Dump()
	if len(d.Records) != 0 {
		t.Fatalf("window should exclude all: %+v", d.Records)
	}
	if d.Records == nil {
		t.Fatal("empty dump must encode as [], not null")
	}
}

func TestRecorderReplicaRestamp(t *testing.T) {
	clock := 0.0
	o := New(Config{Enabled: true}, func() float64 { return clock })
	o.Rec.SetReplica("A")
	o.Rec.Event("before", "")
	o.Rec.SetReplica("B")
	clock = 1
	o.Rec.Event("after", "x=1")
	d := o.Rec.Dump()
	if len(d.Records) != 2 || d.Records[0].Replica != "A" || d.Records[1].Replica != "B" {
		t.Fatalf("records = %+v", d.Records)
	}
	if d.Replica != "B" {
		t.Fatalf("dump replica = %q, want B", d.Replica)
	}
	if d.Records[1].Kind != "event" || d.Records[1].Detail != "x=1" {
		t.Fatalf("event record = %+v", d.Records[1])
	}
}

func TestDisabledRecorderDropsAndDumpsNil(t *testing.T) {
	clock := 0.0
	o := New(Config{Enabled: false}, func() float64 { return clock })
	o.Rec.Event("x", "")
	o.Rec.Event("y", "")
	if o.Rec.Dump() != nil {
		t.Fatal("disabled recorder must dump nil")
	}
	var r *Recorder
	r.SetReplica("A")
	r.Event("x", "")
	if r.Dump() != nil {
		t.Fatal("nil recorder must dump nil")
	}
}
