package core

import (
	"fmt"
	"sync"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/topology"
	"github.com/evolvable-net/evolve/internal/trace"
)

// FallbackConfig parameterises the delivery plane's graceful-degradation
// layer (DESIGN.md §8.3): per-flow health tracking and automatic
// universal-access fallback over the IPv(N-1) baseline path when the vN
// path is broken. The zero value disables the layer entirely and sends
// fail fast. That is the default — every benchmark workload and
// experiments E1–E20 run on it — and the reference the layer is defined
// against: chaos's availability invariant and E21 compare a fallback
// world with its fail-fast twin.
type FallbackConfig struct {
	// Enabled turns the health/fallback layer on. All other fields are
	// ignored when false.
	Enabled bool
	// SuspectAfter is the number of consecutive vN failures after which a
	// healthy flow becomes suspect. Default 1.
	SuspectAfter int
	// FallbackAfter is the number of consecutive vN failures after which
	// a flow enters the fallback state and stops attempting the vN path
	// (every send rides the baseline until a probe heals it). Default 3.
	FallbackAfter int
	// ProbeBase is the initial probe interval of a flow in fallback,
	// measured in sends of that flow (the layer is wall-clock-free so
	// twin worlds stay deterministic). Default 4.
	ProbeBase int
	// ProbeMax caps the exponential probe backoff. Default 64.
	ProbeMax int
	// ProbationSends is the number of consecutive vN successes a
	// recovering flow must accumulate in probation before it is healthy
	// again. Default 3.
	ProbationSends int
	// ProbeJitterSeed seeds the per-flow deterministic jitter applied to
	// probe intervals so a fleet of fallback flows does not probe in
	// lockstep. Flows mix their identity in, so any seed (including 0)
	// de-synchronizes them.
	ProbeJitterSeed int64
}

// withDefaults fills the zero fields of an enabled config; a disabled
// config passes through untouched so Config round-trips exactly.
func (c FallbackConfig) withDefaults() FallbackConfig {
	if !c.Enabled {
		return c
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 1
	}
	if c.FallbackAfter <= 0 {
		c.FallbackAfter = 3
	}
	if c.ProbeBase <= 0 {
		c.ProbeBase = 4
	}
	if c.ProbeMax <= 0 {
		c.ProbeMax = 64
	}
	if c.ProbeMax < c.ProbeBase {
		c.ProbeMax = c.ProbeBase
	}
	if c.ProbationSends <= 0 {
		c.ProbationSends = 3
	}
	return c
}

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
	// path but must string together ProbationSends successes before it
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
	// lastFE is the flow's last materialized vN skeleton, for matching
	// external peer-suspicion signals against its ingress and bone path.
	lastFE *flowEntry
	// fbCost memoises the flow's baseline plan per routing epoch (fbSeq
	// is the epoch sequence it was computed against, fbOK its validity),
	// so steady-state fallback sends recompute nothing.
	fbSeq  uint64
	fbOK   bool
	fbCost int64
}

// jitterSeed hashes the configured seed and a flow's identity into the
// flow's initial jitter generator state (xorshift state must be non-zero).
func jitterSeed(seed int64, k flowKey) uint64 {
	x := uint64(k.src)*0x9e3779b97f4a7c15 ^ uint64(k.dst)*0xbf58476d1ce4e5b9 ^ uint64(k.dep)*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	if x ^= uint64(seed); x == 0 {
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
func (h *flowHealth) decide(epSeq uint64, fc *FallbackConfig, dstVN addr.VN, cb *trace.CounterBatch) (attemptVN, probe bool) {
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
		h.probeEvery *= 2
		if h.probeEvery > fc.ProbeMax {
			h.probeEvery = fc.ProbeMax
		}
		h.jit = h.nextJitter(h.probeEvery/2 + 1)
		cb.FallbackProbe()
		return true, true
	}
	return false, false
}

// noteSuccess records a successful vN delivery: probes enter probation,
// probation accumulates toward healthy, suspicion clears.
func (h *flowHealth) noteSuccess(fe *flowEntry, probe bool, fc *FallbackConfig, cb *trace.CounterBatch, tr trace.Tracer, seq uint32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if fe != nil {
		h.lastFE = fe
	}
	h.fails = 0
	switch {
	case probe && h.state == HealthFallback:
		h.state = HealthProbation
		h.okRun = 1
		cb.HealthProbation()
		healthEvent(tr, seq, trace.DetailHealthProbation)
		if h.okRun >= fc.ProbationSends {
			h.state = HealthHealthy
			cb.HealthRecovered()
			healthEvent(tr, seq, trace.DetailHealthRecovered)
		}
	case h.state == HealthProbation:
		h.okRun++
		if h.okRun >= fc.ProbationSends {
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
// an external signal): suspicion accumulates, and past FallbackAfter the
// flow enters fallback with a fresh probe schedule. dstVN may be the
// zero value when the caller has no epoch at hand (external signals).
func (h *flowHealth) noteFailure(fe *flowEntry, epSeq uint64, fc *FallbackConfig, cb *trace.CounterBatch, tr trace.Tracer, seq uint32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if fe != nil {
		h.lastFE = fe
	}
	h.lastSeq = epSeq
	h.fails++
	h.okRun = 0
	switch h.state {
	case HealthFallback:
		// A failed probe: stay in fallback, backoff already advanced.
	case HealthProbation:
		// Relapse: straight back to fallback.
		h.enterFallbackLocked(fc)
		cb.HealthFallback()
		healthEvent(tr, seq, trace.DetailHealthFallback)
	default:
		if h.fails >= fc.FallbackAfter {
			h.enterFallbackLocked(fc)
			cb.HealthFallback()
			healthEvent(tr, seq, trace.DetailHealthFallback)
		} else if h.state == HealthHealthy && h.fails >= fc.SuspectAfter {
			h.state = HealthSuspect
			cb.HealthSuspect()
			healthEvent(tr, seq, trace.DetailHealthSuspect)
		}
	}
}

// enterFallbackLocked moves the flow into the fallback state with a
// fresh probe schedule. Callers hold h.mu.
func (h *flowHealth) enterFallbackLocked(fc *FallbackConfig) {
	h.state = HealthFallback
	h.fails = 0
	h.okRun = 0
	h.sinceProbe = 0
	h.probeEvery = fc.ProbeBase
	h.jit = h.nextJitter(h.probeEvery/2 + 1)
}

// FlowHealthInfo is the inspectable health of one delivery flow.
type FlowHealthInfo struct {
	// State is the flow's position in the degradation state machine.
	State HealthState
	// Fails is the current consecutive vN failure count.
	Fails int
	// OkRun is the consecutive success count while in probation.
	OkRun int
	// SinceProbe and ProbeEvery describe the probe backoff position of a
	// flow in fallback (sends since the last probe, current interval).
	SinceProbe, ProbeEvery int
}

// FlowHealth reports the health record of the (src, dst) flow on the
// shared deployment address, false when the flow has never been seen (or
// the fallback layer is disabled). Safe to call concurrently with sends.
func (e *Evolution) FlowHealth(src, dst *topology.Host) (FlowHealthInfo, bool) {
	if e.health == nil {
		return FlowHealthInfo{}, false
	}
	h, ok := e.health.load(uint32(src.ID), flowKey{src: src.ID, dst: dst.ID, dep: e.Dep.Addr})
	if !ok {
		return FlowHealthInfo{}, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return FlowHealthInfo{
		State:      h.state,
		Fails:      h.fails,
		OkRun:      h.okRun,
		SinceProbe: h.sinceProbe,
		ProbeEvery: h.probeEvery,
	}, true
}

// ReportUnackedVN feeds an external delivery-failure signal into the
// health layer: every flow whose destination IPvN address matches dst
// takes one failure, exactly as if a send had failed. The live overlay's
// reliability layer calls this when SendVNReliable exhausts its attempts
// (ErrNotAcked) — a failure mode the in-process wire path never sees. It
// returns the number of flows signalled; a no-op (0) when the fallback
// layer is disabled.
func (e *Evolution) ReportUnackedVN(dst addr.VN) int {
	return e.signalFailure(func(h *flowHealth) bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.dstVN == dst
	})
}

// ReportPeerSuspect feeds an overlay peer-suspicion signal into the
// health layer: every flow whose last vN skeleton rides the suspected
// router (as anycast ingress or bone hop) takes one failure. The
// livebridge calls this from the live overlay's PeerHealth suspicion
// table. It returns the number of flows signalled; a no-op (0) when the
// fallback layer is disabled.
func (e *Evolution) ReportPeerSuspect(id topology.RouterID) int {
	return e.signalFailure(func(h *flowHealth) bool {
		h.mu.Lock()
		fe := h.lastFE
		h.mu.Unlock()
		if fe == nil {
			return false
		}
		if fe.ing.Member == id {
			return true
		}
		for _, r := range fe.eg.BonePath {
			if r == id {
				return true
			}
		}
		return false
	})
}

// signalFailure applies one external failure signal to every flow whose
// health record match selects, and returns how many it signalled.
func (e *Evolution) signalFailure(match func(*flowHealth) bool) int {
	if e.health == nil {
		return 0
	}
	epSeq := e.epoch.Load().seq
	var cb trace.CounterBatch
	n := 0
	e.health.each(func(_ int, _ flowKey, h *flowHealth) {
		if match(h) {
			h.noteFailure(nil, epSeq, &e.cfg.Fallback, &cb, nil, 0)
			n++
		}
	})
	cb.FlushTo(&e.counters)
	e.counters.HealthSignal(n)
	return n
}
