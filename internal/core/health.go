package core

import (
	"fmt"
	"sync"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/trace"
)

// The graceful-degradation layer's state machine (DESIGN.md §8.3). Probe
// intervals count sends of the flow, not wall-clock time, so twin worlds
// replaying the same sends stay deterministic.
const (
	// suspectAfter consecutive vN failures make a healthy flow suspect.
	suspectAfter = 1
	// fallbackAfter consecutive vN failures put a flow in fallback: every
	// send rides the baseline until a probe heals it.
	fallbackAfter = 3
	// A flow in fallback probes the vN path after probeBase of its sends,
	// the interval doubling per probe up to probeMax.
	probeBase = 4
	probeMax  = 64
	// probationSends consecutive vN successes make a recovering flow
	// healthy again.
	probationSends = 3
)

// HealthState is one flow's position in the degradation state machine:
// healthy → suspect → fallback → probation → healthy.
type HealthState uint8

const (
	// HealthHealthy: the flow delivers over the vN path.
	HealthHealthy HealthState = iota
	// HealthSuspect: recent vN failures, still attempting the vN path.
	HealthSuspect
	// HealthFallback: the flow rides the IPv(N-1) baseline and probes
	// the vN path on a seeded-jitter backoff schedule.
	HealthFallback
	// HealthProbation: a probe succeeded; the flow is back on the vN
	// path but must string together probationSends successes before it
	// counts as healthy.
	HealthProbation
)

// String names the state the way counters and traces print it.
func (s HealthState) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthSuspect:
		return "suspect"
	case HealthFallback:
		return "fallback"
	case HealthProbation:
		return "probation"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// flowHealth is the health record of one delivery flow. It lives on the
// Evolution (not the epoch — flow caches are rebuilt every epoch, health
// history must survive them) and is mutated under its own mutex by
// whichever sender touches the flow, so concurrent senders serialize
// per-flow, never globally.
type flowHealth struct {
	mu    sync.Mutex
	state HealthState
	// fails counts consecutive vN failures; okRun counts consecutive vN
	// successes while in probation.
	fails, okRun int
	// sinceProbe counts this flow's sends since the last probe;
	// probeEvery is the current backoff interval and jit its jitter.
	sinceProbe, probeEvery, jit int
	// jstate is the per-flow xorshift64 jitter generator state.
	jstate uint64
	// lastSeq is the routing-epoch sequence at the last observed vN
	// failure: a flow in fallback probes immediately when the epoch has
	// changed since, because new routing state is the likeliest cure.
	lastSeq uint64
	// dstVN is the flow's destination IPvN address as of its last send,
	// for matching external unacked-delivery signals.
	dstVN addr.VN
	// fbCost memoises the flow's baseline plan per routing epoch (fbSeq
	// is the epoch sequence it was computed against, fbOK its validity),
	// so steady-state fallback sends recompute nothing.
	fbSeq  uint64
	fbOK   bool
	fbCost int64
}

// jitterSeed hashes a flow's identity into the flow's initial jitter
// generator state, so a fleet of fallback flows does not probe in
// lockstep (xorshift state must be non-zero).
func jitterSeed(k flowKey) uint64 {
	x := uint64(k.src)*0x9e3779b97f4a7c15 ^ uint64(k.dst)*0xbf58476d1ce4e5b9 ^ uint64(k.dep)*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	if x ^= x >> 27; x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	return x
}

// nextJitter draws the next deterministic jitter value in [0, span).
// Callers hold h.mu.
func (h *flowHealth) nextJitter(span int) int {
	x := h.jstate
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	h.jstate = x
	if span <= 0 {
		return 0
	}
	return int(x % uint64(span))
}

// observeDst refreshes the record's destination IPvN address for
// external-signal matching; the error-epoch path calls it because it
// never runs decide (which refreshes it on the healthy path).
func (h *flowHealth) observeDst(v addr.VN) {
	h.mu.Lock()
	h.dstVN = v
	h.mu.Unlock()
}

// healthEvent emits a KindHealth transition event.
func healthEvent(tr trace.Tracer, seq uint32, detail string) {
	if tr != nil {
		tr.Event(trace.Event{Kind: trace.KindHealth, Seq: seq, Router: -1, Detail: detail})
	}
}

// decide makes the per-send health decision for this flow: whether to
// attempt the vN path at all, and whether that attempt is a probe out of
// the fallback state. dstVN refreshes the record's signal-matching
// identity. The decision depends only on the flow's state, the epoch
// sequence and the flow's own send count, so twin worlds replaying the
// same sends decide identically.
func (h *flowHealth) decide(epSeq uint64, dstVN addr.VN, cb *trace.CounterBatch) (attemptVN, probe bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.dstVN = dstVN
	if h.state != HealthFallback {
		return true, false
	}
	h.sinceProbe++
	if epSeq != h.lastSeq || h.sinceProbe >= h.probeEvery+h.jit {
		// Routing state changed since the failure (the likeliest cure),
		// or the backoff interval elapsed: probe the vN path.
		h.sinceProbe = 0
		h.probeEvery = min(2*h.probeEvery, probeMax)
		h.jit = h.nextJitter(h.probeEvery/2 + 1)
		cb.FallbackProbe()
		return true, true
	}
	return false, false
}

// noteSuccess records a successful vN delivery: probes enter probation,
// probation accumulates toward healthy, suspicion clears.
func (h *flowHealth) noteSuccess(probe bool, cb *trace.CounterBatch, tr trace.Tracer, seq uint32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fails = 0
	switch {
	case probe && h.state == HealthFallback:
		h.state = HealthProbation
		h.okRun = 1
		cb.HealthProbation()
		healthEvent(tr, seq, trace.DetailHealthProbation)
	case h.state == HealthProbation:
		h.okRun++
		if h.okRun >= probationSends {
			h.state = HealthHealthy
			h.okRun = 0
			cb.HealthRecovered()
			healthEvent(tr, seq, trace.DetailHealthRecovered)
		}
	case h.state == HealthSuspect:
		h.state = HealthHealthy
		cb.HealthRecovered()
		healthEvent(tr, seq, trace.DetailHealthRecovered)
	}
}

// noteFailure records a vN failure (a delivery error, an error epoch, or
// an external signal): suspicion accumulates, and past fallbackAfter the
// flow enters fallback with a fresh probe schedule.
func (h *flowHealth) noteFailure(epSeq uint64, cb *trace.CounterBatch, tr trace.Tracer, seq uint32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.lastSeq = epSeq
	h.fails++
	h.okRun = 0
	switch h.state {
	case HealthFallback:
		// A failed probe: stay in fallback, backoff already advanced.
	case HealthProbation:
		// Relapse: straight back to fallback.
		h.enterFallbackLocked()
		cb.HealthFallback()
		healthEvent(tr, seq, trace.DetailHealthFallback)
	default:
		if h.fails >= fallbackAfter {
			h.enterFallbackLocked()
			cb.HealthFallback()
			healthEvent(tr, seq, trace.DetailHealthFallback)
		} else if h.state == HealthHealthy && h.fails >= suspectAfter {
			h.state = HealthSuspect
			cb.HealthSuspect()
			healthEvent(tr, seq, trace.DetailHealthSuspect)
		}
	}
}

// enterFallbackLocked moves the flow into the fallback state with a
// fresh probe schedule. Callers hold h.mu.
func (h *flowHealth) enterFallbackLocked() {
	h.state = HealthFallback
	h.fails = 0
	h.okRun = 0
	h.sinceProbe = 0
	h.probeEvery = probeBase
	h.jit = h.nextJitter(h.probeEvery/2 + 1)
}

// ReportUnackedVN feeds an external delivery-failure signal into the
// health layer: every flow whose destination IPvN address matches dst
// takes one failure, exactly as if a send had failed. The live overlay's
// reliability layer calls this when SendVNReliable exhausts its attempts
// (ErrNotAcked) — a failure mode the in-process wire path never sees. It
// returns the number of flows signalled; a no-op (0) when the fallback
// layer is disabled.
func (e *Evolution) ReportUnackedVN(dst addr.VN) int {
	if e.health == nil {
		return 0
	}
	epSeq := e.epoch.Load().seq
	var cb trace.CounterBatch
	n := 0
	e.health.each(func(_ int, _ flowKey, h *flowHealth) {
		h.mu.Lock()
		match := h.dstVN == dst
		h.mu.Unlock()
		if match {
			h.noteFailure(epSeq, &cb, nil, 0)
			n++
		}
	})
	cb.FlushTo(&e.counters)
	e.counters.HealthSignal(n)
	return n
}
