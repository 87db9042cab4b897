// Package netsim is the discrete-event engine under the routing protocols:
// a simulated clock, an event queue, and a message fabric that delivers
// protocol messages between nodes over latency-weighted links, with
// link-failure injection. Protocols run either event-driven (to study
// convergence dynamics) or to quiescence (deterministic final state for
// the experiment harness).
package netsim

import (
	"container/heap"
	"fmt"
)

// Time is simulated time in microseconds.
type Time int64

// String renders the time in milliseconds for logs.
func (t Time) String() string { return fmt.Sprintf("%.3fms", float64(t)/1000) }

type event struct {
	at  Time
	seq uint64 // FIFO among simultaneous events, for determinism
	do  func()
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }
func (q eventQueue) peek() event   { return q[0] }
func (q eventQueue) empty() bool   { return len(q) == 0 }

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now   Time
	queue eventQueue
	seq   uint64
}

// NewEngine returns an engine at time zero with an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules do at absolute time t (clamped to now).
func (e *Engine) At(t Time, do func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.queue, event{at: t, seq: e.seq, do: do})
}

// After schedules do d microseconds from now.
func (e *Engine) After(d Time, do func()) { e.At(e.now+d, do) }

// Step executes the next event; it reports false when the queue is empty.
func (e *Engine) Step() bool {
	if e.queue.empty() {
		return false
	}
	ev := heap.Pop(&e.queue).(event)
	e.now = ev.at
	ev.do()
	return true
}

// Run executes events until the queue drains or the budget is exhausted,
// returning the number executed. A budget of 0 means unlimited.
func (e *Engine) Run(budget uint64) uint64 {
	var n uint64
	for (budget == 0 || n < budget) && e.Step() {
		n++
	}
	return n
}

// RunUntil executes events with at ≤ t, then advances the clock to t.
func (e *Engine) RunUntil(t Time) uint64 {
	var n uint64
	for !e.queue.empty() && e.queue.peek().at <= t {
		e.Step()
		n++
	}
	if e.now < t {
		e.now = t
	}
	return n
}

// Handler is implemented by every node attached to a Fabric.
type Handler interface {
	// Receive is invoked when a message arrives. from is the sending node.
	Receive(from int, msg any)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from int, msg any)

// Receive implements Handler.
func (f HandlerFunc) Receive(from int, msg any) { f(from, msg) }

type linkKey struct{ a, b int }

func mkLink(a, b int) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// Fabric delivers messages between nodes over configured links with
// per-link latency, honouring injected link failures. All delivery happens
// through the Engine so time and ordering stay deterministic.
type Fabric struct {
	eng      *Engine
	latency  map[linkKey]Time
	handlers map[int]Handler
	down     map[linkKey]bool

	// Stats.
	Sent      uint64
	Delivered uint64
	Dropped   uint64
}

// NewFabric returns a fabric scheduling onto eng.
func NewFabric(eng *Engine) *Fabric {
	return &Fabric{
		eng:      eng,
		latency:  map[linkKey]Time{},
		handlers: map[int]Handler{},
		down:     map[linkKey]bool{},
	}
}

// Engine returns the underlying engine.
func (f *Fabric) Engine() *Engine { return f.eng }

// Attach registers the handler for node id, replacing any existing one.
func (f *Fabric) Attach(id int, h Handler) { f.handlers[id] = h }

// Connect creates (or updates) the bidirectional link a–b.
func (f *Fabric) Connect(a, b int, latency Time) {
	if latency <= 0 {
		latency = 1
	}
	f.latency[mkLink(a, b)] = latency
}

// FailLink takes the link a–b down; messages in flight still arrive
// (signals propagate), subsequent sends are dropped.
func (f *Fabric) FailLink(a, b int) { f.down[mkLink(a, b)] = true }

// RestoreLink brings the link a–b back up.
func (f *Fabric) RestoreLink(a, b int) { delete(f.down, mkLink(a, b)) }

// FlapLink takes the link a–b down now and schedules its restoration
// downFor microseconds later — the primitive behind chaos-style flap
// injection. Messages sent while the link is down are dropped; the
// restoration is an ordinary engine event, so a flap interleaves
// deterministically with protocol traffic. A non-positive downFor
// restores on the next engine step at the current time.
func (f *Fabric) FlapLink(a, b int, downFor Time) {
	f.FailLink(a, b)
	f.eng.After(downFor, func() { f.RestoreLink(a, b) })
}

// Send schedules delivery of msg from→to after the link latency. Messages
// sent over absent or failed links are counted as dropped.
func (f *Fabric) Send(from, to int, msg any) {
	f.Sent++
	k := mkLink(from, to)
	lat, ok := f.latency[k]
	if !ok || f.down[k] {
		f.Dropped++
		return
	}
	f.eng.After(lat, func() {
		h, ok := f.handlers[to]
		if !ok {
			f.Dropped++
			return
		}
		f.Delivered++
		h.Receive(from, msg)
	})
}
