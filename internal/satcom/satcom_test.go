package satcom

import (
	"sort"
	"testing"

	"minkowski/internal/sim"
)

func TestDeliveryAndCallback(t *testing.T) {
	eng := sim.New(1)
	g := NewGateway(eng, DefaultProviders())
	var got *Message
	g.Deliver = func(m *Message) { cp := *m; got = &cp }
	id, ok := g.Send(Message{Dest: "hbal-001", Size: 512})
	if !ok || id == 0 {
		t.Fatal("send rejected")
	}
	eng.Run(3600)
	if got == nil {
		t.Fatal("message never delivered")
	}
	if got.Dest != "hbal-001" {
		t.Errorf("delivered to %q", got.Dest)
	}
	if g.Delivered != 1 || g.Sent != 1 || g.Dropped != 0 {
		t.Errorf("counters: %+v", g)
	}
}

func TestLatencyDistributionMatchesPaper(t *testing.T) {
	// Sample many round trips (two one-way draws) and check the
	// quantiles are in the paper's ballpark: median 87 s, p90 347 s,
	// p99 890 s.
	eng := sim.New(7)
	g := NewGateway(eng, DefaultProviders())
	var rtts []float64
	n := 2000
	for i := 0; i < n; i++ {
		// Unique destination per message → no rate-limit queueing.
		dest := "node-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
		start := eng.Now()
		done := false
		g.Deliver = func(m *Message) {
			if !done {
				// Response takes another one-way draw.
				p := g.providers[int(m.ID)%2]
				back := p.DrawOneWay(eng.RNG("resp"))
				rtts = append(rtts, eng.Now()-start+back)
				done = true
			}
		}
		g.Send(Message{Dest: dest, Size: 512})
		eng.Run(eng.Now() + 4000)
	}
	sort.Float64s(rtts)
	q := func(p float64) float64 { return rtts[int(p*float64(len(rtts)))] }
	med, p90, p99 := q(0.5), q(0.9), q(0.99)
	if med < 40 || med > 180 {
		t.Errorf("median RTT = %.0f s, want ~87 s", med)
	}
	if p90 < 150 || p90 > 700 {
		t.Errorf("p90 RTT = %.0f s, want ~347 s", p90)
	}
	if p99 < 400 || p99 > 2500 {
		t.Errorf("p99 RTT = %.0f s, want ~890 s", p99)
	}
	if rtts[0] < 20 {
		t.Errorf("min RTT = %.0f s, below the paper's 23 s floor", rtts[0])
	}
}

func TestPerNodeRateLimit(t *testing.T) {
	eng := sim.New(1)
	g := NewGateway(eng, DefaultProviders())
	var deliveries []float64
	g.Deliver = func(m *Message) { deliveries = append(deliveries, eng.Now()) }
	// Burst of 5 messages to the same balloon: the gateway must space
	// transmissions by the per-node interval across both providers.
	for i := 0; i < 5; i++ {
		g.Send(Message{Dest: "hbal-001", Size: 1024})
	}
	eng.Run(3600)
	if len(deliveries) != 5 {
		t.Fatalf("delivered %d of 5", len(deliveries))
	}
	// With 2 providers at 60 s per node, 5 messages need ≥ 120 s of
	// transmit spacing; the last transmission can't have happened
	// before t=60 (3rd message on one provider).
	sort.Float64s(deliveries)
	if deliveries[4]-deliveries[0] < 30 {
		t.Errorf("deliveries bunched within %.0f s — rate limit not applied", deliveries[4]-deliveries[0])
	}
}

func TestTTEDrop(t *testing.T) {
	eng := sim.New(1)
	g := NewGateway(eng, DefaultProviders())
	var droppedWhy string
	g.OnDrop = func(m *Message, why string) { droppedWhy = why }
	// TTE 5 s in the future: no provider can make it.
	id, ok := g.Send(Message{Dest: "hbal-001", Size: 512, TTE: eng.Now() + 5})
	if ok || id != 1 {
		t.Errorf("Send = %d, %v; want message 1 dropped: no provider meets its TTE", id, ok)
	}
	if droppedWhy != "tte-infeasible" {
		t.Errorf("drop reason = %q", droppedWhy)
	}
	if g.Dropped != 1 {
		t.Errorf("dropped counter = %d", g.Dropped)
	}
}

func TestTTEFeasibleAccepted(t *testing.T) {
	eng := sim.New(1)
	g := NewGateway(eng, DefaultProviders())
	delivered := false
	g.Deliver = func(m *Message) { delivered = true }
	_, ok := g.Send(Message{Dest: "hbal-001", Size: 512, TTE: eng.Now() + 600})
	if !ok {
		t.Fatal("10-minute TTE should be feasible")
	}
	eng.Run(600)
	if !delivered {
		t.Error("feasible message not delivered")
	}
}

func TestRequiresInBandDrop(t *testing.T) {
	eng := sim.New(1)
	g := NewGateway(eng, DefaultProviders())
	var why string
	g.OnDrop = func(m *Message, w string) { why = w }
	if id, ok := g.Send(Message{Dest: "hbal-001", RequiresInBand: true}); ok || id != 1 {
		t.Errorf("Send = %d, %v; want message 1 dropped by the satcom gateway (in-band only)", id, ok)
	}
	if why != "requires-in-band" {
		t.Errorf("drop reason = %q", why)
	}
}

func TestProviderSpreading(t *testing.T) {
	// With the same destination, consecutive messages should use
	// alternating providers (whichever is free sooner).
	eng := sim.New(1)
	providers := DefaultProviders()
	g := NewGateway(eng, providers)
	g.Send(Message{Dest: "x", Size: 100})
	g.Send(Message{Dest: "x", Size: 100})
	// Both providers should now have a nextFree entry for x.
	usedBoth := providers[0].nextFree["x"] > 0 && providers[1].nextFree["x"] > 0
	if !usedBoth {
		t.Error("two back-to-back messages should spread across providers")
	}
}

// TestDeterminism: one seed, one set of delivery times. The second
// half of the messages is sent during a full outage, so it reaches the
// wire through the requeue backoff and its seeded jitter; no
// controller scenario requeues (their TTEs expire before the first
// retry), so this is the only run that draws from that stream.
func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		eng := sim.New(9)
		g := NewGateway(eng, DefaultProviders())
		var times []float64
		g.Deliver = func(m *Message) { times = append(times, eng.Now()) }
		for i := 0; i < 10; i++ {
			g.Send(Message{Dest: "hbal-001", Size: 100})
		}
		g.SetProviderDown("all", true)
		for i := 0; i < 10; i++ {
			g.Send(Message{Dest: "hbal-002", Size: 100})
		}
		eng.At(600, func() { g.SetProviderDown("all", false) })
		eng.Run(7200)
		if g.Requeued < 10 || g.Delivered != 20 {
			t.Fatalf("requeued %d, delivered %d; want every outage message requeued and all 20 delivered", g.Requeued, g.Delivered)
		}
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different delivery counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical delivery times")
		}
	}
}

// TestMessageRowsStayInert: a message row is reused only once its one
// queued event has fired or it was dropped. A message requeued through
// an outage keeps its row while another is dropped and a third is sent
// on the dropped one's row, and each lands as it was sent.
func TestMessageRowsStayInert(t *testing.T) {
	eng := sim.New(1)
	g := NewGateway(eng, DefaultProviders())
	var delivered []Message
	g.Deliver = func(m *Message) { delivered = append(delivered, *m) }
	var dropped []uint64
	g.OnDrop = func(m *Message, _ string) { dropped = append(dropped, m.ID) }
	g.SetProviderDown("all", true)
	g.Send(Message{Dest: "hbal-001", Payload: "a"})                       // requeued
	g.Send(Message{Dest: "hbal-002", Payload: "b", RequiresInBand: true}) // dropped
	g.Send(Message{Dest: "hbal-003", Payload: "c"})                       // requeued, on b's row
	eng.At(60, func() { g.SetProviderDown("all", false) })
	eng.Run(3600)
	if len(dropped) != 1 || dropped[0] != 2 {
		t.Errorf("dropped %v, want [2]", dropped)
	}
	sort.Slice(delivered, func(i, j int) bool { return delivered[i].ID < delivered[j].ID })
	if len(delivered) != 2 ||
		delivered[0].ID != 1 || delivered[0].Dest != "hbal-001" || delivered[0].Payload != "a" ||
		delivered[1].ID != 3 || delivered[1].Dest != "hbal-003" || delivered[1].Payload != "c" {
		t.Errorf("delivered %+v, want messages 1 and 3 as sent", delivered)
	}
	if len(g.free) != 2 || g.Requeued < 2 {
		t.Errorf("free rows %d, requeued %d; want 2 rows for 3 messages, both live ones requeued", len(g.free), g.Requeued)
	}
}

func BenchmarkSend(b *testing.B) {
	eng := sim.New(1)
	g := NewGateway(eng, DefaultProviders())
	g.Deliver = func(m *Message) {}
	for i := 0; i < b.N; i++ {
		g.Send(Message{Dest: "hbal-001", Size: 512})
		if i%100 == 99 {
			eng.Run(eng.Now() + 10000)
		}
	}
}
