package netsim

import (
	"testing"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	if n := e.Run(0); n != 3 {
		t.Fatalf("ran %d events", n)
	}
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestEngineFIFOAmongSimultaneous(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events reordered: %v", got)
		}
	}
}

func TestEngineAfterAndNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.After(10, func() {
		fired = append(fired, e.Now())
		e.After(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run(0)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Errorf("fired = %v", fired)
	}
}

func TestEnginePastSchedulingClamped(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		e.At(3, func() {}) // in the past: must run at now, not rewind
	})
	e.Run(0)
	if e.Now() != 10 {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestEngineRunBudget(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(Time(i), func() {})
	}
	if n := e.Run(3); n != 3 {
		t.Errorf("ran %d", n)
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d", e.Pending())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var count int
	for _, at := range []Time{5, 10, 15, 20} {
		e.At(at, func() { count++ })
	}
	e.RunUntil(12)
	if count != 2 {
		t.Errorf("count = %d", count)
	}
	if e.Now() != 12 {
		t.Errorf("Now = %v", e.Now())
	}
	e.RunUntil(100)
	if count != 4 {
		t.Errorf("count = %d", count)
	}
}

func TestEngineProcessed(t *testing.T) {
	e := NewEngine()
	e.At(1, func() {})
	e.At(2, func() {})
	if n := e.Run(0); n != 2 {
		t.Errorf("Run processed %d events, want 2", n)
	}
}

func TestFabricDelivery(t *testing.T) {
	e := NewEngine()
	f := NewFabric(e)
	f.Connect(1, 2, 7)
	var gotFrom int
	var gotMsg any
	var gotAt Time
	f.Attach(2, HandlerFunc(func(from int, msg any) {
		gotFrom, gotMsg, gotAt = from, msg, e.Now()
	}))
	f.Send(1, 2, "hello")
	e.Run(0)
	if gotFrom != 1 || gotMsg != "hello" || gotAt != 7 {
		t.Errorf("delivery = from %d msg %v at %v", gotFrom, gotMsg, gotAt)
	}
	if f.Sent != 1 || f.Delivered != 1 || f.Dropped != 0 {
		t.Errorf("stats = %d/%d/%d", f.Sent, f.Delivered, f.Dropped)
	}
}

func TestFabricDropsWithoutLink(t *testing.T) {
	e := NewEngine()
	f := NewFabric(e)
	f.Attach(2, HandlerFunc(func(int, any) { t.Error("should not deliver") }))
	f.Send(1, 2, "x")
	e.Run(0)
	if f.Dropped != 1 {
		t.Errorf("Dropped = %d", f.Dropped)
	}
}

func TestFabricFailAndRestore(t *testing.T) {
	e := NewEngine()
	f := NewFabric(e)
	f.Connect(1, 2, 1)
	var n int
	f.Attach(2, HandlerFunc(func(int, any) { n++ }))

	f.FailLink(1, 2)
	if f.Connected(1, 2) {
		t.Error("failed link reported connected")
	}
	f.Send(1, 2, "lost")
	e.Run(0)
	if n != 0 || f.Dropped != 1 {
		t.Errorf("after failure: delivered %d dropped %d", n, f.Dropped)
	}

	f.RestoreLink(1, 2)
	if !f.Connected(1, 2) {
		t.Error("restored link reported down")
	}
	f.Send(1, 2, "found")
	e.Run(0)
	if n != 1 {
		t.Errorf("after restore: delivered %d", n)
	}
}

func TestFabricFlapLink(t *testing.T) {
	e := NewEngine()
	f := NewFabric(e)
	f.Connect(1, 2, 1)
	var n int
	f.Attach(2, HandlerFunc(func(int, any) { n++ }))

	f.FlapLink(1, 2, 50)
	if f.Connected(1, 2) {
		t.Error("flapped link still connected immediately after flap")
	}
	f.Send(1, 2, "during-flap")
	e.RunUntil(49)
	if n != 0 || f.Dropped != 1 {
		t.Errorf("during flap: delivered %d dropped %d", n, f.Dropped)
	}
	e.RunUntil(60)
	if !f.Connected(1, 2) {
		t.Error("link not restored after flap interval")
	}
	f.Send(1, 2, "after-flap")
	e.Run(0)
	if n != 1 {
		t.Errorf("after flap: delivered %d", n)
	}
}

func TestFabricFlapLinkZeroDuration(t *testing.T) {
	// A non-positive downFor restores via an engine event at the current
	// time: the link is down until the engine steps, then up again.
	e := NewEngine()
	f := NewFabric(e)
	f.Connect(1, 2, 1)
	f.FlapLink(1, 2, 0)
	if f.Connected(1, 2) {
		t.Error("link up before restoration event ran")
	}
	e.Run(0)
	if !f.Connected(1, 2) {
		t.Error("link still down after restoration event")
	}
}

func TestFabricLinkSymmetric(t *testing.T) {
	e := NewEngine()
	f := NewFabric(e)
	f.Connect(2, 1, 4) // declared one way…
	var ok bool
	f.Attach(2, HandlerFunc(func(int, any) { ok = true }))
	f.Send(1, 2, "rev") // …used the other
	e.Run(0)
	if !ok {
		t.Error("link should be bidirectional")
	}
}

func TestFabricDropsToUnattachedNode(t *testing.T) {
	e := NewEngine()
	f := NewFabric(e)
	f.Connect(1, 2, 1)
	f.Send(1, 2, "void")
	e.Run(0)
	if f.Dropped != 1 {
		t.Errorf("Dropped = %d", f.Dropped)
	}
}

func TestFabricBroadcast(t *testing.T) {
	e := NewEngine()
	f := NewFabric(e)
	var n int
	for _, id := range []int{2, 3, 4} {
		f.Connect(1, id, 1)
		f.Attach(id, HandlerFunc(func(int, any) { n++ }))
	}
	f.Broadcast(1, []int{2, 3, 4}, "all")
	e.Run(0)
	if n != 3 {
		t.Errorf("broadcast delivered %d", n)
	}
}

func TestFabricInFlightSurvivesFailure(t *testing.T) {
	// A message already in flight when the link fails still arrives:
	// failure stops future sends, not photons already in the fibre.
	e := NewEngine()
	f := NewFabric(e)
	f.Connect(1, 2, 10)
	var n int
	f.Attach(2, HandlerFunc(func(int, any) { n++ }))
	f.Send(1, 2, "in-flight")
	f.FailLink(1, 2)
	e.Run(0)
	if n != 1 {
		t.Errorf("in-flight message lost (n=%d)", n)
	}
}

func TestTimeString(t *testing.T) {
	if Time(1500).String() != "1.500ms" {
		t.Errorf("String = %s", Time(1500))
	}
}
